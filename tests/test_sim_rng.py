"""RandomStreams determinism tests."""

import numpy as np

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_different_sequences(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        first = RandomStreams(seed=9).get("loss").random(16)
        second = RandomStreams(seed=9).get("loss").random(16)
        assert np.allclose(first, second)

    def test_creation_order_does_not_matter(self):
        one = RandomStreams(seed=3)
        one.get("x")
        x_then = one.get("y").random(4)
        two = RandomStreams(seed=3)
        y_only = two.get("y").random(4)
        assert np.allclose(x_then, y_only)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("s").random(8)
        b = RandomStreams(seed=2).get("s").random(8)
        assert not np.allclose(a, b)

    def test_fork_is_independent(self):
        base = RandomStreams(seed=5)
        fork1 = base.fork(1).get("s").random(8)
        fork2 = base.fork(2).get("s").random(8)
        assert not np.allclose(fork1, fork2)

    def test_fork_reproducible(self):
        a = RandomStreams(seed=5).fork(7).get("s").random(8)
        b = RandomStreams(seed=5).fork(7).get("s").random(8)
        assert np.allclose(a, b)


class TestSpawnKeyDeterminism:
    """The crc32-based spawn keys are part of the determinism contract:
    stream identity must not depend on Python's per-process str hash."""

    def test_spawn_key_is_crc32_of_name(self):
        import zlib

        streams = RandomStreams(seed=11)
        expected = np.random.default_rng(np.random.SeedSequence(
            entropy=11, spawn_key=(zlib.crc32(b"loss"),),
        )).random(8)
        assert np.allclose(streams.get("loss").random(8), expected)

    def test_streams_stable_across_hash_randomisation(self):
        """Draws must be identical under different PYTHONHASHSEED,
        i.e. across independent worker processes."""
        import os
        import subprocess
        import sys

        snippet = (
            "from repro.sim.rng import RandomStreams\n"
            "s = RandomStreams(seed=42)\n"
            "print(list(s.get('loss').random(4)),"
            " list(s.get('delay').random(4)))\n"
        )
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(__file__)),
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_many_names_all_distinct(self):
        streams = RandomStreams(seed=4)
        first_draws = {
            name: streams.get(name).random()
            for name in (f"component.{i}" for i in range(50))
        }
        assert len(set(first_draws.values())) == 50

