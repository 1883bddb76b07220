"""Guard against code in the package that only the tests use.

Every public top-level function and class of ``src/fsosec`` must be
referenced somewhere in the package other than inside its own
definition.  KEPT names, with a reason each, exactly the public names
that are not: a name that gains a caller in the package leaves it.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fsosec"

KEPT = {
    "pdf_ht_gform": "documented Meijer-G cross-check route of pdf_ht",
    "snr_pdf_gform": "documented Meijer-G cross-check route of snr_pdf",
    "snr_cdf_gform": "documented Meijer-G cross-check route of snr_cdf",
    "mc_asc": "imported by the benchmark smoke tests",
    "cn2_profile": "patched by name by the benchmark tracer and integrated by "
                   "the Rytov oracle test",
    "snr_cdf": "imported into secrecy only for the benchmark tracer, which "
               "patches secrecy.snr_cdf by name",
}


def _names_read(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced_public_names():
    # top-level statements of the package, with the names each reads
    statements = [(top, _names_read(top))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for top in ast.parse(path.read_text()).body]
    return {node.name for node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names
                        for top, names in statements if top is not node)}


def test_every_public_name_is_used_by_the_package():
    assert _unreferenced_public_names() == set(KEPT)
