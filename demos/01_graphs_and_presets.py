"""Graph containers, homophily measures, and the bundled SBM presets.

Walks through the Graph data structure on a small hand-built example,
then generates the two shipped stochastic block model presets and
inspects the structure that makes one of them easy and the other one
deliberately confusing around its minority class.
"""

import numpy as np

from disamgnn import (
    PRESET_NAMES,
    build_graph,
    get_preset,
    graph_homophily,
    make_split,
    node_homophily_vector,
    sbm_generate,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A toy graph by hand: two triangles joined by one bridge edge.
    # ------------------------------------------------------------------
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    labels = [0, 0, 0, 1, 1, 1]
    features = np.eye(6)
    g = build_graph(edges, features, labels)

    print("toy graph")
    print(f"  nodes={g.num_nodes} edges={g.num_edges} classes={g.num_classes}")
    print(f"  degrees          = {g.degrees().tolist()}")
    print(f"  neighbors(2)     = {g.neighbors(2).tolist()}")
    # Nodes 2 and 3 sit on the bridge, so one of their three neighbors
    # carries the other class: homophily 2/3. Everyone else is at 1.
    print(f"  node homophily   = {np.round(node_homophily_vector(g), 3).tolist()}")
    print(f"  graph homophily  = {graph_homophily(g):.3f}")
    print()

    # ------------------------------------------------------------------
    # 2. The shipped presets. "separated" is three clean blocks;
    #    "ambiguity" plants a small class on the boundary between two
    #    large ones, wired to both of them 5x more strongly than the
    #    large blocks are wired to each other.
    # ------------------------------------------------------------------
    for name in PRESET_NAMES:
        spec = get_preset(name)
        graph = sbm_generate(spec)
        hom = graph_homophily(graph)
        print(f"preset '{name}'")
        print(f"  class sizes     = {spec.class_sizes}")
        print(f"  nodes={graph.num_nodes} edges={graph.num_edges}")
        print(f"  graph homophily = {hom:.3f}")
        deg = graph.degrees()
        hom_vec = node_homophily_vector(graph)
        for c in range(graph.num_classes):
            members = np.flatnonzero(graph.labels == c)
            print(
                f"  class {c}: n={members.size:4d}  mean degree={deg[members].mean():6.2f}"
                f"  mean node homophily={hom_vec[members].mean():.3f}"
            )
        print()

    # ------------------------------------------------------------------
    # 3. Splits are stratified: 5% train / 10% val / 85% test,
    #    with at least one training node per class.
    # ------------------------------------------------------------------
    graph = sbm_generate(get_preset("ambiguity"))
    masks = make_split(graph, rng=np.random.default_rng(0))
    print("stratified split on the ambiguity preset (5/10/85)")
    for which in ("train", "val", "test"):
        idx = masks.mask(which)
        counts = np.bincount(graph.labels[idx], minlength=graph.num_classes)
        print(f"  {which:5s}: {idx.size:3d} nodes, per class {counts.tolist()}")


if __name__ == "__main__":
    main()
