"""Table I: statistics of the (synthetic) five data sources."""
from _common import emit, make_wb

from repro.experiments import table1_statistics


def main() -> None:
    wb = make_wb("build")
    emit("table1_sources", table1_statistics(wb))


if __name__ == "__main__":
    main()
