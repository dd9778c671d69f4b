"""Seed-driven basis permutations of the bundled algebra files.

A permutation p of {0, ..., d-1} sends old basis vector e_i to new position
p[i].  It is applied consistently to every tensor factor of every structure
map, so the permuted file describes an isomorphic ribbon Hopf algebra in a
reordered basis.  Scalars are copied as strings: no arithmetic is involved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BUNDLES = ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")

# Keys holding sparse triplets [row, col, value]: (row factors, col factors).
_MATRICES = {"m": (1, 2), "Delta": (2, 1), "S": (1, 1), "S_inv": (1, 1)}
# Keys holding sparse vectors [index, value]: number of tensor factors.
_VECTORS = {"u": 1, "epsilon": 1, "theta": 1, "theta_inv": 1, "R": 2, "R_inv": 2}


def permutation(dim: int, seed: int | None) -> list[int]:
    """The basis permutation for ``seed``; ``None`` selects the identity."""
    perm = list(range(dim))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return perm


def _tensor_index(perm: list[int], idx: int, factors: int) -> int:
    d = len(perm)
    out, scale = 0, 1
    for _ in range(factors):
        idx, digit = divmod(idx, d)
        out += perm[digit] * scale
        scale *= d
    return out


def permute_algebra(obj: dict, perm: list[int]) -> dict:
    """The algebra JSON object rewritten in the basis reordered by ``perm``."""
    d = obj["dim"]
    if sorted(perm) != list(range(d)):
        raise ValueError(f"not a permutation of range({d}): {perm}")
    out = dict(obj)
    basis = [None] * d
    for i, label in enumerate(obj["basis"]):
        basis[perm[i]] = label
    out["basis"] = basis
    for key, (rf, cf) in _MATRICES.items():
        out[key] = sorted([_tensor_index(perm, r, rf), _tensor_index(perm, c, cf), v]
                          for r, c, v in obj[key])
    for key, factors in _VECTORS.items():
        if key in obj:
            out[key] = sorted([_tensor_index(perm, i, factors), v] for i, v in obj[key])
    simples = []
    for simple in obj.get("simples", []):
        v = simple["dim"]
        # the action's domain is H (x) V: permute the algebra factor only
        action = sorted([r, perm[c // v] * v + c % v, s] for r, c, s in simple["action"])
        simples.append({**simple, "action": action})
    if "simples" in obj:
        out["simples"] = simples
    return out


def write_bundles(data_dir: Path, out_dir: Path, seed: int | None) -> dict[str, Path]:
    """Write every bundle, permuted by its own stream of ``seed``, into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for k, name in enumerate(BUNDLES):
        with open(data_dir / f"{name}.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        sub_seed = None if seed is None else seed * len(BUNDLES) + k
        permuted = permute_algebra(obj, permutation(obj["dim"], sub_seed))
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(permuted, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths
