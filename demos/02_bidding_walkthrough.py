"""Round-by-round walkthrough of the bidding protocol on a two-cell system.

Three users: one inelastic user locked to carrier 1, one elastic user locked
to carrier 2, and one elastic user in range of both. The shared user shops
for the cheaper carrier each round; the engine settles once no bid moves by
more than delta and the duality gap has closed, and the final allocation is
certified against the centralized solver.

The engine keeps no per-round history. Runs are deterministic, so the table
replays the run with a round limit of n for each round n it shows: that
partial result holds round n's prices and bids and its largest bid move.
"""

from carrieralloc import (
    CarrierSpec,
    EngineConfig,
    LogarithmicUtility,
    NonConvergenceError,
    Scenario,
    SigmoidalUtility,
    UESpec,
    kkt_check,
    run,
    solve_central,
)

SCENARIO = Scenario(
    carriers=(CarrierSpec(id=1, capacity=60.0), CarrierSpec(id=2, capacity=40.0)),
    ues=(
        UESpec(id=1, utility=SigmoidalUtility(a=3.0, b=10.0), carriers=(1,)),
        UESpec(id=2, utility=LogarithmicUtility(k=2.0, r_max=80.0), carriers=(2,)),
        UESpec(id=3, utility=LogarithmicUtility(k=0.5, r_max=80.0), carriers=(1, 2)),
    ),
    name="walkthrough",
)


def round_state(n: int):
    """The run stopped after round n: that round's prices, bids and bid move."""
    try:
        return run(SCENARIO, EngineConfig(max_rounds=n))
    except NonConvergenceError as exc:
        return exc.result


def main() -> None:
    result = run(SCENARIO, EngineConfig())

    print("round   p1        p2        shared-user bids (w1, w2)   max bid move")
    for n in range(1, result.rounds + 1):
        if n <= 8 or n % 10 == 0 or n == result.rounds:
            t = round_state(n)
            w1 = t.bids.get((1, 3), 0.0)
            w2 = t.bids.get((2, 3), 0.0)
            print(
                f"{n:5d}  {t.prices[1]:9.5f} {t.prices[2]:9.5f}"
                f"   ({w1:9.5f}, {w2:9.5f})        {t.max_bid_delta:9.2e}"
            )

    print(f"\nconverged in {result.rounds} rounds; objective {result.objective:.6f}")
    for uid in (1, 2, 3):
        parts = ", ".join(
            f"carrier {cid}: {result.rate(cid, uid):7.3f}"
            for cid in (1, 2)
            if (cid, uid) in result.rates
        )
        print(f"  user {uid}: total {result.totals[uid]:7.3f}  ({parts})")
    print(f"  shadow prices: p1={result.prices[1]:.6f}  p2={result.prices[2]:.6f}")

    truth = solve_central(SCENARIO)
    print("\ncentralized solver agrees:")
    for uid in (1, 2, 3):
        print(
            f"  user {uid}: protocol {result.totals[uid]:8.4f}"
            f"  oracle {truth.totals[uid]:8.4f}"
        )
    certificate = kkt_check(result, SCENARIO, tol=1e-2)
    print(
        f"\nKKT certificate at tol 1e-2: passed={certificate.passed} "
        f"(stationarity {certificate.stationarity_active:.2e})"
    )


if __name__ == "__main__":
    main()
