"""MP001 fixture: the shard supervisor only receives module-level callables."""

from repro.runtime.supervisor import ShardSupervisor


def double(value, shard):
    return shard * 2


def no_shared_form(prepared):
    return None


class Kernel:
    @classmethod
    def publish(cls, prepared):
        return None


def run_all(payload, tasks: list, report, **options) -> list:
    with ShardSupervisor(
        payload, shard_fn=double, publish=no_shared_form, **options
    ) as runner:
        doubled = runner.run(tasks, report)
    # Same keyword names on some other callable are none of the rule's business.
    options.update(dict(prepare=lambda raw: raw))
    with ShardSupervisor(
        payload, shard_fn=double, publish=Kernel.publish, **options
    ) as runner:
        return doubled + runner.run(tasks, report)
