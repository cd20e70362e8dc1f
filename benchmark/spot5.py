"""Seeded source instances shaped like the SPOT5 daily-photograph problem.

SPOT5 (Bensana, Lemaitre & Verfaillie, Constraints 4(3), 1999) selects the
photographs one satellite takes along one track.  A mono photograph is
taken by one of the three instruments (cameras 1-3); a stereo photograph
needs the front and rear instruments together (virtual camera 4).  Binary
constraints forbid camera choices of photographs that are close in time
(instrument transition times, stereo/mono overlap), ternary constraints
model data-flow limits over three close photographs, and an on-board
recorder bounds the total memory the selected photographs use.

Here requests are laid out along the track in id order and every binary
and ternary constraint joins requests at most ``WINDOW`` positions apart,
so constraints are local, as in SPOT5.
"""

from __future__ import annotations

import numpy as np

from satplan.instance import Instance, Request, VarRef

N_REQUESTS = 160
STEREO_SHARE = 0.3
WINDOW = 3
PAIR_PROB = 0.5
TRIPLE_PROB = 0.25
MONO_CAMERA_SETS = ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2), (2, 3), (1, 3))


def spot5_source(seed: int) -> Instance:
    """Random SPOT5-shaped instance: mono/stereo mix, local forbidden pairs
    and triples, and a per-camera memory cost on most requests."""
    rng = np.random.default_rng([0x5907, seed])
    requests = []
    for rid in range(N_REQUESTS):
        weight = float(rng.integers(1, 10))
        if rng.random() < STEREO_SHARE:
            kind, cams = "stereo", (4,)
        else:
            kind, cams = "mono", MONO_CAMERA_SETS[rng.integers(len(MONO_CAMERA_SETS))]
        # Stereo photographs fill two instruments' worth of memory; a camera
        # that relays to a ground station at once costs nothing.
        base = 2 if kind == "stereo" else 1
        caps = {cam: base * int(rng.integers(1, 4)) for cam in cams if rng.random() < 0.85}
        requests.append(
            Request(id=rid, kind=kind, weight=weight, allowed_cameras=cams, capacity_by_camera=caps)
        )

    def pick(req: Request) -> VarRef:
        cams = req.allowed_cameras
        return VarRef(req.id, cams[rng.integers(len(cams))])

    pairs = set()
    triples = set()
    for i, req in enumerate(requests):
        for j in range(i + 1, min(i + WINDOW + 1, N_REQUESTS)):
            if rng.random() < PAIR_PROB:
                pairs.add((pick(req), pick(requests[j])))
            for k in range(j + 1, min(i + WINDOW + 1, N_REQUESTS)):
                if rng.random() < TRIPLE_PROB:
                    triples.add((pick(req), pick(requests[j]), pick(requests[k])))
    return Instance(
        name=f"spot5-s{seed}",
        requests=tuple(requests),
        binary_forbidden=frozenset(pairs),
        ternary_forbidden=frozenset(triples),
    )
