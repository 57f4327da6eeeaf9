"""The source surface that `tools/surface.py` reports: no top-level function
or class that reached code does not name may join the ones left today, and
the settable values and config keys may not grow past today's counts."""

import ast
import importlib.util
from pathlib import Path

# The unreached names when this check was added; each one wired in or deleted
# leaves the list, and none may join it.
UNREACHED = {
    "_ee_labels", "_label_defs", "_lcs_length", "_slot_token_f1", "_value", "dice_similarity", "dpo_prompt",
    "header_soft_f1", "load_jsonl", "make_corpus", "make_extraction", "make_instance", "make_markdown_table",
    "make_schema", "make_text", "max_assignment", "openie_tuple_f1", "parse_markdown_table", "rouge_l_f1",
    "sentence_bleu_m3", "tuple_pair_score",
}
# The counts today; a change that drops a value or key lowers its bound.
MAX_SETTABLE_VALUES = 82
MAX_CONFIG_KEYS = 50


def _surface():
    path = Path(__file__).resolve().parent.parent / "tools" / "surface.py"
    spec = importlib.util.spec_from_file_location("surface", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_unreached_name_beyond_the_known_ones():
    surface = _surface()
    assert set(surface.unreached([ast.parse(text) for text in surface.source_texts()])) <= UNREACHED


def test_settable_values_and_config_keys_do_not_grow():
    surface = _surface()
    assert sum(surface.settable_values(ast.parse(text)) for text in surface.source_texts()) <= MAX_SETTABLE_VALUES
    assert surface.config_keys() <= MAX_CONFIG_KEYS
