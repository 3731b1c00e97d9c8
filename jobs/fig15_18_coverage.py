"""Figs. 15-18: CJSP search time vs k, theta, q and delta (3 methods)."""
from _common import emit, make_wb

from repro.experiments import (
    fig15_coverage_vs_k,
    fig16_coverage_vs_theta,
    fig17_coverage_vs_q,
    fig18_coverage_vs_delta,
)


def main() -> None:
    wb = make_wb("cov")
    emit("fig15_coverage_vs_k", fig15_coverage_vs_k(wb), "k")
    emit("fig16_coverage_vs_theta", fig16_coverage_vs_theta(wb), "theta")
    emit("fig17_coverage_vs_q", fig17_coverage_vs_q(wb), "q")
    emit("fig18_coverage_vs_delta", fig18_coverage_vs_delta(wb), "delta")


if __name__ == "__main__":
    main()
