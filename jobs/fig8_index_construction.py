"""Fig. 8: construction time and memory of the five indexes vs theta."""
from _common import emit, make_wb

from repro.experiments import fig8_index_construction


def main() -> None:
    wb = make_wb("build")
    df = fig8_index_construction(wb)
    emit("fig8_build_time", df, "theta", "build_s")
    emit("fig8_memory", df, "theta", "memory_mb")


if __name__ == "__main__":
    main()
