import json
import os
import pathlib
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import abnn
from abnn.abelian import AbelianOp
from abnn.analogy import MlpModel
from abnn.baseline import DeepSetsModel
from abnn.checkpoint import (
    BadMagicError,
    ChecksumError,
    KindMismatchError,
    TrailingBytesError,
    TruncatedError,
    VersionMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from abnn.invertible import CouplingFlow, MonotonicNet


def models(rng):
    return [
        AbelianOp(MonotonicNet.initialized(3, 4, rng), "sum"),
        AbelianOp(MonotonicNet.initialized(2, 2, rng), "product"),
        AbelianOp(CouplingFlow(4, 3, 8, rng, init="random"), "sum"),
        AbelianOp(CouplingFlow(6, 2, 5, rng, init="random"), "product"),
        DeepSetsModel(2, 3, 8, 6, rng),
    ]


class TestRoundTrip:
    def test_parameters_and_structure_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        for i, model in enumerate(models(rng)):
            path = tmp_path / f"m{i}.abnn"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.kind == model.kind
            assert np.array_equal(loaded.store.values, model.store.values)

    def test_flow_permutations_survive(self, tmp_path):
        rng = np.random.default_rng(1)
        op = AbelianOp(CouplingFlow(5, 4, 6, rng, init="random"), "sum")
        path = tmp_path / "flow.abnn"
        save_checkpoint(op, path)
        loaded = load_checkpoint(path)
        for p, q in zip(op.phi.perms, loaded.phi.perms):
            assert np.array_equal(p, q)

    def test_mlp_loads_without_importing_the_analogy_module(self, tmp_path):
        model = MlpModel(4, 3, 6, np.random.default_rng(5))
        path = tmp_path / "mlp.abnn"
        save_checkpoint(model, path)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from abnn import load_checkpoint\n"
            "assert 'abnn.analogy' not in sys.modules\n"
            "m = load_checkpoint(sys.argv[1], expected_kind='mlp')\n"
            "sys.stdout.write(m.store.values.tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(abnn.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert bytes.fromhex(out) == model.store.values.tobytes()

    def test_version_one_file_with_inv_tol_still_loads(self, tmp_path):
        # files written before the closed-form inverse carry "inv_tol" in
        # their header; the key is ignored on load
        rng = np.random.default_rng(6)
        model = AbelianOp(MonotonicNet.initialized(3, 3, rng), "product")
        header = json.dumps({"combiner": "product", "inv_tol": 1e-10, "j_units": 3,
                             "k_groups": 3}, sort_keys=True, separators=(",", ":")).encode()
        kind = model.kind.encode()
        values = model.store.values.astype("<f8")
        body = b"".join([
            b"ABNN", struct.pack("<I", 1),
            struct.pack("<H", len(kind)), kind,
            struct.pack("<I", len(header)), header,
            struct.pack("<Q", values.size), values.tobytes(),
        ])
        path = tmp_path / "old.abnn"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        loaded = load_checkpoint(path, expected_kind="asn-mono")
        assert np.array_equal(loaded.store.values, model.store.values)
        sets = [rng.uniform(-2, 2, size=m) for m in (1, 2, 3, 5, 12) for _ in range(20)]
        assert np.array_equal(loaded.fold_many(sets), model.fold_many(sets))
        for ms in sets[::10]:
            assert np.array_equal(loaded.fold(ms), model.fold(ms))

    def test_inv_tol_no_longer_written(self, tmp_path):
        rng = np.random.default_rng(7)
        for i, model in enumerate(models(rng)):
            path = tmp_path / f"h{i}.abnn"
            save_checkpoint(model, path)
            assert b"inv_tol" not in path.read_bytes()

    def test_forward_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(2)
        for i, model in enumerate(models(rng)):
            path = tmp_path / f"fwd{i}.abnn"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            sets = [rng.uniform(-2, 2, size=(3, model.d)) for _ in range(100)]
            assert np.array_equal(model.fold_many(sets), loaded.fold_many(sets))


class TestErrors:
    def make_file(self, tmp_path):
        rng = np.random.default_rng(3)
        model = AbelianOp(MonotonicNet.initialized(2, 3, rng), "sum")
        path = tmp_path / "m.abnn"
        save_checkpoint(model, path)
        return path

    def test_corrupted_parameter_byte(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # inside the parameter block
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_byte(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrailingBytesError, match="1 trailing byte"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        body = bytes(data[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionMismatchError, match="version"):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        model = DeepSetsModel(1, 2, 4, 4, rng)
        path = tmp_path / "ds.abnn"
        save_checkpoint(model, path)
        with pytest.raises(KindMismatchError, match="model kind mismatch"):
            load_checkpoint(path, expected_kind="agn-mono")
