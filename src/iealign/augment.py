"""LLM-assisted chain-of-thought explanations for SFT answers.

All client calls go through the cached model client, so reruns are free and
resumable.
"""

from __future__ import annotations

import logging
import random

from .client import BaseClient
from .errors import DataError

logger = logging.getLogger(__name__)

COT_WORDS_RANGE = (70, 200)
# Sampling temperature of every CoT generation request.
GENERATION_TEMPERATURE = 0.7

COT_PROMPT_TEMPLATE = """\
Please generate a step-by-step explanation for [Answer] based on [Question], and give reasons for each step.
The generated explanation should make use of the content in the [Question] as much as possible, and must be consistent with the [Answer].
It will eventually be provided at the front of the answer.
No more than {words_number} words.

[Question]: {input}
[Answer]: {output}
[Step-by-Step Explanation]:"""


def sample_words_limit(rng: random.Random) -> int:
    return rng.randint(*COT_WORDS_RANGE)


def cot_prompt(question: str, answer: str, words_limit: int) -> str:
    return COT_PROMPT_TEMPLATE.format(words_number=words_limit, input=question, output=answer)


def generate_cot(question: str, answer: str, words_limit: int, client: BaseClient) -> str:
    text = client.complete(cot_prompt(question, answer, words_limit), GENERATION_TEMPERATURE).strip()
    if not text:
        raise DataError("empty CoT explanation from client")
    n_words = len(text.split())
    if n_words > words_limit * 1.5:
        logger.warning("CoT explanation is %d words, limit was %d", n_words, words_limit)
    return text

