"""The resource bound the subcommands share, and the refusal it raises.

A problem whose size exceeds its bound is refused before the work or
memory it would take is spent; the CLI exits 3 on the refusal.
"""

DEFAULT_BOUND = 10_000_000


class SearchSpaceError(RuntimeError):
    """Raised when a problem's size exceeds the bound set on it, before the
    work is done: the oracle's belief table, the branch entries of its
    graph or the entries the `oracle` op's sweeps read; the simulator's run
    size; or the rows of an index table."""

    def __init__(self, count: int, bound: int, what: str):
        self.count = count
        self.bound = bound
        super().__init__(f"search space too large: {count} {what} exceeds the bound {bound}")
