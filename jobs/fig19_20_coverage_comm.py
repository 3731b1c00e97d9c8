"""Figs. 19/20: CJSP communication cost (bytes, transfer time) vs q."""
from _common import emit, make_wb

from repro.experiments import fig19_20_coverage_comm


def main() -> None:
    wb = make_wb("cov")
    df = fig19_20_coverage_comm(wb)
    emit("fig19_coverage_comm_bytes", df, "q", "kbytes")
    emit("fig20_coverage_comm_time", df, "q", "transfer_s")


if __name__ == "__main__":
    main()
