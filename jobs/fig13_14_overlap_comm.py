"""Figs. 13/14: OJSP communication cost (bytes, transfer time) vs q."""
from _common import emit, make_wb

from repro.experiments import fig13_14_overlap_comm


def main() -> None:
    wb = make_wb("comm")
    df = fig13_14_overlap_comm(wb)
    emit("fig13_overlap_comm_bytes", df, "q", "kbytes")
    emit("fig14_overlap_comm_time", df, "q", "transfer_s")


if __name__ == "__main__":
    main()
