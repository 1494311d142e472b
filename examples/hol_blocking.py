#!/usr/bin/env python3
"""Head-of-line blocking, made visible (paper Fig. 4/5 and Fig. 12).

Part 1 runs the two-tag Waitany microscenario: under loss, TCP can only
ever hand the application Msg-A first (byte-stream order), while SCTP's
streams let Msg-B overtake a damaged Msg-A and slash the time the
application waits for *something* to work on.

Part 2 runs the farm with the SCTP module's stream pool set to 1 —
the paper's ablation — showing that the win really comes from
multistreaming, not from SCTP's other machinery.

Run:  python examples/hol_blocking.py
"""

from repro.workloads.farm import FarmParams, run_farm
from repro.workloads.hol_micro import run_hol_micro


def main():
    print("-- Fig. 4/5 microscenario: Waitany on two tags, 2% loss --")
    for rpi in ("tcp", "sctp"):
        r = run_hol_micro(iterations=40, rpi=rpi, loss_rate=0.02, seed=2)
        print(
            f"  {rpi:>4}: second-sent message arrived first in "
            f"{r.b_first_fraction:5.1%} of rounds; mean wait for the first "
            f"message {r.mean_first_completion_ns / 1e6:8.2f} ms"
        )

    print()
    print("-- Fig. 12 ablation: SCTP with 10 streams vs 1 stream, 2% loss --")
    params = FarmParams(num_tasks=150, task_size=30 * 1024, fanout=10)
    multi = run_farm(params, rpi="sctp", loss_rate=0.02, seed=3, num_streams=10)
    single = run_farm(params, rpi="sctp", loss_rate=0.02, seed=3, num_streams=1)
    print(f"  10 streams: {multi.elapsed_s:7.2f} s")
    print(
        f"   1 stream : {single.elapsed_s:7.2f} s "
        f"({single.elapsed_s / multi.elapsed_s - 1:+.0%} — pure HOL penalty)"
    )


if __name__ == "__main__":
    main()
