"""The compilers' output, pinned byte for byte.

Each file under ``golden/`` holds ``print_instance`` of one compiled
system followed by its sidecar JSON on the last line. The systems are
x*y = z, x + y = z and x = 3. The targets are F(a, b) in both free modes,
and gamma1 and gamma2 for the RAAG compiler; gamma2's weak module {a, b}
has two vertices, so relativizing emits its ``_y`` gadgets there. The
emission order, the fresh names, the recipes and the decode map are all
part of the pinned text: change a file only with a deliberate change of
the encoding.
"""

from pathlib import Path

import pytest

from abelcon.compilers import compile_h10_free, compile_h10_raag, parse_h10
from abelcon.instances import print_instance

GOLDEN = Path(__file__).resolve().parent / "golden"

SYSTEMS = {"product": "1*x*y -1*z = 0\n", "sum": "1*x 1*y -1*z = 0\n", "constant": "1*x -3 = 0\n"}


@pytest.mark.parametrize("target", ["pure-ab", "native-expsum", "gamma1", "gamma2"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_compiled_instance_and_sidecar_are_pinned(request, f2, system, target):
    h = parse_h10(SYSTEMS[system])
    if target.startswith("gamma"):
        cr = compile_h10_raag(h, request.getfixturevalue(target))
    else:
        cr = compile_h10_free(h, f2, target)
    got = print_instance(cr.instance) + cr.sidecar_json() + "\n"
    assert got == (GOLDEN / f"{system}-{target}.txt").read_text(encoding="utf-8")
