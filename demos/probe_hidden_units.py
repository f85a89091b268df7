"""Probe hidden units of a trained model: which inputs from each modality
activate a unit the most. Concept-selective units emerge without any
supervision on the hidden layers.

Run:  python demos/probe_hidden_units.py
"""

import numpy as np

from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal.data import SyntheticWorld, generate_synthetic, handles_from_triples
from crossmodal.losses import LossConfig
from crossmodal.training import TrainConfig, train

world = SyntheticWorld(concepts=6, seed=5, output_dim=64)
dataset = generate_synthetic(world, 60)
handles = handles_from_triples(dataset)
spec = nets.desk_spec(1 / 16)

print("training a small model ...")
result = train(spec, handles, TrainConfig(seed=0, learning_rate=3e-3, batch_size=8,
                                          iterations=300, loss=LossConfig()))

concept_of = dataset.labels

# find the most concept-selective units in the last hidden layer
vectors = {m: ev.embed_all(result.params, [getattr(t, m) for t in dataset.triples], "shared2")
           for m in ("image", "sound", "text")}
listings = ev.probe_units(vectors, k=5)
scored = []
for unit, by_modality in listings.items():
    top_concepts = [concept_of[sid] for mod in by_modality.values() for sid, _ in mod]
    counts = np.bincount(top_concepts, minlength=world.concepts)
    scored.append((counts.max() / counts.sum(), unit))
scored.sort(reverse=True)

for purity, unit in scored[:4]:
    print(f"\nunit {unit} (top-5 concept purity {purity:.0%}):")
    for modality, entries in listings[unit].items():
        ids = ", ".join(f"{sid}(c{concept_of[sid]})" for sid, _ in entries)
        print(f"  {modality:<6} {ids}")
