import sys

import pytest

from abpscalc import langlands, springer
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
    _clear_springer_memos()
    yield WRONG_SP6_MESSAGE
    _clear_springer_memos()


def signed_matrix(w):
    """The monomial integer matrix of the signed permutation ``w`` on the
    exponent lattice: row ``j`` describes coordinate ``j + 1`` of the
    image point as a monomial in the coordinates of the argument."""
    k = w.rank
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        mat[w.images[i] - 1][i] = w.signs[i]
    return mat


def _clear_springer_memos():
    """Empty every memo that holds a read of the correspondence, so that
    the patched label is neither bypassed nor kept past the test: the
    class-read memo holds the reads of each factor class, a shared
    Springer reader holds its class's rows, and a memoised centralizer
    carries the shared reader of its class, which the class memo keeps
    too."""
    for memo in (springer._class_reads, springer.springer_blocks,
                 springer.class_reader, langlands.centralizer_restriction):
        memo.cache_clear()


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name``: a wrapper is bound under every
    name the package looks the function up by, so a module that imported
    it directly is counted too.  Returns the list of positional argument
    tuples, one per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "abpscalc" or modname.startswith("abpscalc."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def centralizer_calls(monkeypatch):
    """The ``(group, parameter)`` arguments of every call of
    ``langlands.centralizer_restriction``."""
    from abpscalc import langlands

    return _count_calls(monkeypatch, langlands, "centralizer_restriction")


@pytest.fixture
def springer_calls(monkeypatch):
    """The positional arguments of every call of
    ``springer.generalized_springer``, ``springer.springer_blocks`` and
    ``langlands.cuspidal_support``, by function name, and under ``read``
    the ``(group, class, character)`` of every single-pair read
    (``springer.ClassReader.read``), whoever made the reader."""
    reads = []
    real = springer.ClassReader.read

    def read(self, char):
        reads.append((self.group, self.u, char))
        return real(self, char)

    monkeypatch.setattr(springer.ClassReader, "read", read)
    return {
        "generalized_springer": _count_calls(monkeypatch, springer, "generalized_springer"),
        "springer_blocks": _count_calls(monkeypatch, springer, "springer_blocks"),
        "cuspidal_support": _count_calls(monkeypatch, langlands, "cuspidal_support"),
        "read": reads,
    }


@pytest.fixture
def block_support_calls(monkeypatch):
    """The positional arguments of every call of
    ``langlands.block_support``."""
    from abpscalc import langlands

    return _count_calls(monkeypatch, langlands, "block_support")


@pytest.fixture
def class_traffic(monkeypatch):
    """The positional arguments of every construction of
    ``springer.ClassReader`` and every call of
    ``springer.component_group``, by name: the work of reading one
    unipotent class."""
    return {name: _count_calls(monkeypatch, springer, name)
            for name in ("ClassReader", "component_group")}


@pytest.fixture
def class_reader_calls(monkeypatch):
    """The ``(group, class)`` arguments of every call of
    ``springer.class_reader``, the memo of shared Springer readers."""
    return _count_calls(monkeypatch, springer, "class_reader")
