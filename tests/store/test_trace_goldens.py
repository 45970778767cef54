"""Golden content digests of every registered app.

Spec-built traces are keyed by derivation (app name plus options), not by
content, so a change to what an app model traces would otherwise keep
serving results cached for the old trace.  These goldens turn such a change
into a failing test.
"""

import pytest

from repro.apps.registry import APPLICATIONS, create_application
from repro.tracing import TracingVirtualMachine

#: Content digests at ``num_ranks=4, iterations=2`` (other options default).
GOLDEN_DIGESTS = {
    "allreduce-ring":
        "f5f8335cf40d0f39b60937c5587e7380dbf6a2f1a14574e3eb9cf6024cc5ea17",
    "alya":
        "c02ee164035c30928b98f3b4d7fa146d2125faefe50af347ac08e561cd0dc07a",
    "nas-bt":
        "4cdb6baf053177f44298037b93b6e127519bbfd2880a1704e12891195d64ab0c",
    "nas-cg":
        "b23fc7872d60644e1d23b2d160b24347b4c6aebdba63e0ac7c567f3204578b48",
    "pop":
        "9b6b5f861ef793c159941d5bef795c01a798a454a04cfd8575eec2c66c504d3c",
    "random-exchange":
        "8d3deba5d6e2167458f201083f045ed4cfa2251f25bcd71ef81559c22f7c0c4c",
    "sancho-loop":
        "0bf3e83c53b8084e3a45dcf6a69661d78348879dc46a149e0532fa437cb08790",
    "specfem":
        "a79d353125e7d3abc87deac617dda1f2052693c9a4ed535cd283b7b3c1b144dc",
    "sweep3d":
        "db9acf848fd1b52b2c06e05f3efb27becad48cacd0fcf696187fc7bd59cba2d6",
}


def test_every_registered_app_has_a_golden():
    assert sorted(GOLDEN_DIGESTS) == sorted(APPLICATIONS)


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_trace_content_matches_the_golden(name):
    app = create_application(name, num_ranks=4, iterations=2)
    digest = TracingVirtualMachine().trace(app).digest()
    assert digest == GOLDEN_DIGESTS.get(name), (
        f"the trace output of {name!r} changed: result stores address "
        f"spec-built traces by derivation, so bump "
        f"repro.store.keys.STORE_FORMAT and update GOLDEN_DIGESTS[{name!r}] "
        f"to {digest!r}")
