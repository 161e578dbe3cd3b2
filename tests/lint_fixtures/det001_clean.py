"""DET001 fixture: clock reads routed through an injected Clock."""


def measure(clock) -> float:
    start = clock.perf_counter()
    sum(range(1000))
    return clock.perf_counter() - start
