"""Adapting to changing traffic patterns (paper Appendix A / Figure 13).

The CT-R-tree's skeleton is mined from history; what happens when the city
changes?  This example demolishes five buildings and erects five new ones,
keeps the old index, and watches Appendix A's machinery react:

* stray objects pile into node overflow buffers (linked lists);
* busy lists convert to alpha-R-trees;
* alpha-R-tree leaves that behave like qs-regions (enough objects, small
  area, stable for T_buf_time) are *promoted* into the structural tree;
* churning qs-regions can be retired.

Two trees replay the same post-change stream: one frozen, one adaptive.

Run:  python examples/adaptive_patterns.py
"""

from repro.citysim import City, CitySimulator
from repro.core.builder import CTRTreeBuilder
from repro.core.params import CTParams, SimulationParams
from repro.health import verify_index
from repro.storage import Pager
from repro.workload import SimulationDriver, UpdateStream


def main():
    n_objects = 1200
    params = SimulationParams(
        n_objects=n_objects,
        update_rate=n_objects / 20.0,
        n_history=110,
        n_updates=20,
        n_warmup_max=40,
    )

    # -- before: learn the original city ------------------------------------
    city = City.generate(seed=7, n_buildings=71)
    simulator = CitySimulator(city, params, seed=8)
    history_trace = simulator.run(n_samples=params.n_history)
    print(f"learned {city}")

    # -- the change: 5 buildings demolished, 5 erected ----------------------
    new_city = city.with_changes(remove=5, add=5, seed=9)
    simulator.continue_in(new_city)
    online_trace = simulator.run(n_samples=params.n_updates * 6, warm_up=False)
    print("city changed: 5 buildings demolished, 5 new ones erected\n")

    histories = history_trace.histories(params.n_history)
    current = history_trace.current_positions(params.n_history)

    ct_params = CTParams(t_list=1, t_buf_num=10, t_buf_time=300.0, t_remove=0.5)
    for adaptive in (False, True):
        pager = Pager()
        builder = CTRTreeBuilder(ct_params, query_rate=1.0, adaptive=adaptive)
        tree, _report = builder.build(pager, city.bounds, histories)
        driver = SimulationDriver(tree, pager, "adaptive" if adaptive else "frozen")
        driver.load(current)
        result = driver.run(UpdateStream(online_trace, 0), [])
        label = "adaptive (Appendix A on)" if adaptive else "frozen   (no adaptation)"
        print(
            f"{label}: {result.update_ios:>9,} update I/Os | "
            f"regions {tree.region_count:>3} | "
            f"buffered objects {tree.buffered_object_count():>4} | "
            f"promotions {tree.adaptation.promotions}, "
            f"retirements {tree.adaptation.retirements}"
        )
        assert verify_index(tree).ok

    print(
        "\nThe adaptive tree discovers the new buildings as approximate "
        "qs-regions and pulls their residents out of the overflow buffers; "
        "the frozen tree keeps paying full relocations for every report "
        "they make."
    )


if __name__ == "__main__":
    main()
