"""MP001 fixture: unpicklable callables handed to the shard supervisor."""

from repro.runtime import supervisor
from repro.runtime.supervisor import ShardSupervisor


def run_all(payload, tasks: list, report, **options) -> list:
    def double(value, shard):
        return shard * 2

    with ShardSupervisor(
        payload, shard_fn=double, publish=lambda prepared: None, **options
    ) as runner:
        doubled = runner.run(tasks, report)
    with supervisor.ShardSupervisor(
        payload, shard_fn=max, publish=print, prepare=lambda raw: raw, **options
    ) as runner:
        return doubled + runner.run(tasks, report)
