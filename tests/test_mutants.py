"""scripts/mutants.py keeps the mutant list; here only its texts are checked
against src/, with no pytest run of any mutant."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_text_occurs_once_in_src():
    assert mutants.check() == []
    assert all((ROOT / "src" / "twistalex" / m.file).is_file() for m in mutants.MUTANTS)


def test_check_reports_a_stale_or_ambiguous_text():
    m = mutants.MUTANTS[0]
    stale = m._replace(name="stale", old="no such text\n")
    ambiguous = m._replace(name="ambiguous", file="cyclo.py", old="return")
    same = m._replace(name="same", new=m.old)
    assert mutants.check([m, m, stale, ambiguous, same]) == [
        f"{m.name}: duplicated name",
        "stale: old text occurs 0 times in cyclo.py",
        f"ambiguous: old text occurs {(ROOT / 'src/twistalex/cyclo.py').read_text().count('return')}"
        " times in cyclo.py",
        "same: new text equals old text",
    ]
