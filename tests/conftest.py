import sys

import pytest

from abpscalc import springer
from abpscalc.combicore import Bipartition, Partition

# The message springer_blocks raises when the wrong_sp6_label fixture is on.
WRONG_SP6_MESSAGE = ("Sp6: block [GL1^3xSp0] does not biject with Irr W(B3): "
                     "labels in excess [(2.1,-)], missing [(3,-)]")


@pytest.fixture
def wrong_sp6_label(monkeypatch):
    """Make the regular class of Sp6 read the label of the class (4,1,1),
    so that the principal block of Sp6 fails the bijectivity check."""
    real = springer._factor_block_and_label
    regular = Bipartition(Partition((3,)), Partition())

    def wrong(kind, top, bottom, tag):
        d, sign, label = real(kind, top, bottom, tag)
        if label == regular:
            label = Bipartition(Partition((2, 1)), Partition())
        return d, sign, label

    monkeypatch.setattr(springer, "_factor_block_and_label", wrong)
    springer.springer_blocks.cache_clear()
    yield WRONG_SP6_MESSAGE
    springer.springer_blocks.cache_clear()


@pytest.fixture
def centralizer_calls(monkeypatch):
    """Count the calls of ``langlands.centralizer_restriction``: a wrapper
    is bound under every name the package looks the function up by, so a
    module that imported it directly is counted too.  The fixture value
    is the list of ``(group, parameter)`` arguments, one per call."""
    from abpscalc import langlands

    original = langlands.centralizer_restriction
    calls = []

    def counted(G, phi):
        calls.append((G, phi))
        return original(G, phi)

    for name, module in list(sys.modules.items()):
        if name == "abpscalc" or name.startswith("abpscalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls
