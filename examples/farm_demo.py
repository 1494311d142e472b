#!/usr/bin/env python3
"""The paper's Bulk Processor Farm, SCTP vs TCP, with and without loss.

Reproduces the Fig. 10 experiment at demo scale: a manager hands out
30 KiB tasks of ten different types (tags) to seven workers that each
keep ten requests outstanding.  Under 1-2% loss the TCP middleware
serializes everything behind each lost segment while the SCTP module's
streams keep undamaged task types flowing.

Run:  python examples/farm_demo.py
"""

from repro.workloads.farm import FarmParams, run_farm


def main():
    params = FarmParams(
        num_tasks=200,
        task_size=30 * 1024,
        max_work_tags=10,
        outstanding_requests=10,
        fanout=1,
        compute_seconds_per_task=0.004,
    )
    print(f"farm: {params.num_tasks} tasks x {params.task_size // 1024} KiB, "
          f"7 workers, fanout={params.fanout}")
    print(f"{'loss':>6} {'tcp (s)':>10} {'sctp (s)':>10} {'tcp/sctp':>9}")
    for loss in (0.0, 0.01, 0.02):
        tcp = run_farm(params, rpi="tcp", loss_rate=loss, seed=7)
        sctp = run_farm(params, rpi="sctp", loss_rate=loss, seed=7)
        print(
            f"{loss:>6.0%} {tcp.elapsed_s:>10.2f} {sctp.elapsed_s:>10.2f} "
            f"{tcp.elapsed_s / sctp.elapsed_s:>8.1f}x"
        )


if __name__ == "__main__":
    main()
