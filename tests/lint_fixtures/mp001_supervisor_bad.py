"""MP001 fixture: unpicklable callables handed to the shard supervisor."""

from repro.runtime import supervisor
from repro.runtime.supervisor import ShardSupervisor


def run_all(payload, tasks: list, report, **options) -> list:
    def double(value, shard):
        return shard * 2

    with ShardSupervisor(payload, shard_fn=double, **options) as runner:
        doubled = runner.run(tasks, report)
    with supervisor.ShardSupervisor(
        payload, shard_fn=lambda value, shard: shard, **options
    ) as runner:
        doubled += runner.run(tasks, report)
    with supervisor.ShardSupervisor(payload, shard_fn=max, **options) as runner:
        return doubled + runner.run(tasks, report)
