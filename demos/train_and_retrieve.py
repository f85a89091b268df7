"""Train a small aligned model on synthetic triples and run cross-modal
retrieval. Takes a couple of minutes on one core.

Run:  python demos/train_and_retrieve.py
"""

import numpy as np

from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal.data import SyntheticWorld, generate_synthetic, handles_from_triples
from crossmodal.losses import LossConfig
from crossmodal.training import TrainConfig, train

world = SyntheticWorld(concepts=10, seed=3, output_dim=64)
dataset = generate_synthetic(world, 80)
triples = dataset.triples
handles = handles_from_triples(dataset)

spec = nets.desk_spec(1 / 16)
cfg = TrainConfig(seed=0, learning_rate=3e-3, batch_size=8, iterations=400,
                  loss=LossConfig(margin=0.5))

print(f"training: {cfg.iterations} iterations on {len(triples)} triples ...")
result = train(spec, handles, cfg)
first, last = result.trajectory[0].terms, result.trajectory[-1].terms
print(f"loss {first['total']:.3f} -> {last['total']:.3f} "
      f"(kl {first.get('kl', 0):.3f} -> {last.get('kl', 0):.3f})")

# one forward per batch gives every tap; retrieval reads the shared2 vectors
taps = {m: ev.embed_taps(result.params, [getattr(t, m) for t in triples])
        for m in ("image", "sound", "text")}
for src, dst in (("image", "sound"), ("sound", "image"),
                 ("image", "text"), ("text", "image")):
    pairs = [(getattr(t, src).id, getattr(t, dst).id) for t in triples]
    res = ev.median_rank_retrieval(taps[src]["shared2"], taps[dst]["shared2"], pairs,
                                   n_splits=1, split_size=len(triples), seed=0,
                                   direction=f"{src}->{dst}")
    chance = (len(triples) + 1) / 2
    print(f"{src:>5} -> {dst:<5} average median rank "
          f"{res.average_median_rank:5.1f}   (chance {chance:.1f})")
