"""MP001 fixture: the shard supervisor only receives module-level callables."""

from repro.runtime.supervisor import ShardSupervisor


def double(value, shard):
    return shard * 2


class Kernel:
    @staticmethod
    def halve(value, shard):
        return shard / 2


def run_all(payload, tasks: list, report, **options) -> list:
    with ShardSupervisor(payload, shard_fn=double, **options) as runner:
        doubled = runner.run(tasks, report)
    # The same keyword name on some other callable is none of the rule's business.
    options.update(dict(shard_fn=lambda value, shard: shard))
    with ShardSupervisor(payload, shard_fn=Kernel.halve, **options) as runner:
        return doubled + runner.run(tasks, report)
