"""The bridge experiment at demo scale: train only on image+sound and
image+text pairs, then retrieve between sound and text, a pairing the model
never saw. Images act as the bridge.

Run:  python demos/bridge_transfer.py   (a few minutes on one core)
"""

from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal.data import SyntheticWorld, generate_synthetic, handles_from_triples
from crossmodal.losses import LossConfig
from crossmodal.training import TrainConfig, train

world = SyntheticWorld(concepts=8, seed=11, output_dim=64)
dataset = generate_synthetic(world, 260)
train_trips = dataset.triples[:200]
held_out = dataset.triples[200:]

handles = handles_from_triples(dataset, indices=range(200))
spec = nets.desk_spec(1 / 16)

chance = (len(held_out) + 1) / 2


def report(tag, params):
    vectors = {m: ev.embed_all(params, [getattr(t, m) for t in held_out])
               for m in ("sound", "text")}
    for src, dst in (("sound", "text"), ("text", "sound")):
        pairs = [(getattr(t, src).id, getattr(t, dst).id) for t in held_out]
        r = ev.median_rank_retrieval(vectors[src], vectors[dst], pairs, n_splits=1,
                                     split_size=len(held_out), seed=0, direction=f"{src}->{dst}")
        print(f"  {tag:<10} {r.direction:<12} median rank {r.average_median_rank:6.1f} "
              f"(chance {chance:.1f})")


print("sound<->text retrieval on 60 held-out pairs, never paired in training:")
report("untrained", nets.init_params(spec, seed=9, sigma=0.01))

cfg = TrainConfig(seed=0, learning_rate=3e-3, batch_size=10, iterations=500,
                  loss=LossConfig())
result = train(spec, handles, cfg)
report("trained", result.params)
