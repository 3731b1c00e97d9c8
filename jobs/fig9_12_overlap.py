"""Figs. 9-12: OJSP search time vs k, theta, q and f (5 methods)."""
from _common import emit, make_wb

from repro.experiments import (
    fig9_overlap_vs_k,
    fig10_overlap_vs_theta,
    fig11_overlap_vs_q,
    fig12_overlap_vs_f,
)


def main() -> None:
    wb = make_wb("search")
    emit("fig9_overlap_vs_k", fig9_overlap_vs_k(wb), "k")
    emit("fig10_overlap_vs_theta", fig10_overlap_vs_theta(wb), "theta")
    emit("fig11_overlap_vs_q", fig11_overlap_vs_q(wb), "q")
    emit("fig12_overlap_vs_f", fig12_overlap_vs_f(wb), "f")


if __name__ == "__main__":
    main()
