import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest

from hookzeta import cli, craig, specht, zeta
from hookzeta.arith import divisors
from hookzeta.bounds import DEFAULT_BOUNDS, Bounds
from hookzeta.craig import craig_lattice
from hookzeta.exactmat import IntMatrix, matrix_to_json
from hookzeta.specht import craig_generators
from hookzeta.zeta import dirichlet_coeff, dirichlet_coeffs, global_zeta


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaCommand:
    def test_latex(self, capsys):
        code, out, _ = run(capsys, "zeta", "--n", "3", "--d", "4", "--format", "latex")
        assert code == 0
        assert out.strip() == "\\zeta_{\\mathbf{Q}}(3s)\\,(1+2^{-s}+4^{-s})"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "zeta", "--n", "2", "--d", "1", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["local_factors"] == [{"p": 3, "terms": [[0, 1], [1, 1]]}]

    def test_past_the_digit_limit(self, capsys):
        # 1667^4999 and 101^999999 have more digits than Python prints by default.
        for n in ("5000", "1000000"):
            for fmt in ("text", "latex"):
                code, out, err = run(capsys, "zeta", "--n", n, "--d", "1", "--format", fmt)
                assert (code, err) == (0, ""), (n, fmt)
                assert out.startswith(("zeta_Q(", "\\zeta_")), (n, fmt)

    def test_text(self, capsys):
        code, out, _ = run(capsys, "zeta", "--n", "2", "--d", "1")
        assert code == 0
        assert out.strip() == "zeta_Q(2s) * (1 + 3^(-s))"

    def test_invalid_divisor_exits_two(self, capsys):
        code, _, err = run(capsys, "zeta", "--n", "3", "--d", "3")
        assert code == 2
        assert "not-a-lattice" in err

    def test_too_small_n_exits_two(self, capsys):
        code, _, _ = run(capsys, "zeta", "--n", "1", "--d", "1")
        assert code == 2


class TestZetaContract:
    """Every `zeta` input of the grid is answered or refused, quickly and in a
    few bytes: each local factor has at most v_p(n+1) + 1 nonzero terms."""

    NS = (
        list(range(2, 41))
        + [10**k + e for k in range(6, 19) for e in (-1, 0, 1)]
        + [10**18 + 2, 998244359987710470]
        + [random.Random(26).randrange(41, 10**12) for _ in range(20)]
    )

    def test_answered_or_refused_in_few_bytes(self, capsys, time_limit):
        for n in self.NS:
            for d in (1, n + 1, n + 2, 0):
                for fmt in ("text", "json", "latex"):
                    argv = ["zeta", "--n", str(n), "--d", str(d), "--format", fmt]
                    with time_limit(5):
                        code, out, err = run(capsys, *argv)
                    assert code in (0, 2), argv
                    assert "Traceback" not in err, argv
                    assert code == 0 or out == "", argv
                    assert len(out.encode()) < 4096, argv
                    if code == 0 and fmt == "json":
                        for factor in json.loads(out)["local_factors"]:
                            p, m, v = factor["p"], n + 1, 0
                            while m % p == 0:
                                m, v = m // p, v + 1
                            assert 1 <= len(factor["terms"]) <= v + 1, (argv, p)


class TestEnumerateOracleContract:
    """`enumerate --oracle` answers quickly at the corners of its bounds: at
    each p, the largest n the spinning bound accepts and the largest such n
    with p | n+1, every d | n+1, at the largest exponent the oracle accepts."""

    @staticmethod
    def corners():
        bounds = DEFAULT_BOUNDS
        for p in (2, 3, 5, 7):
            top = max(e for e in range(10) if p**e <= bounds.index_enumeration_max)
            n = max(n for n in range(2, 40) if n**3 * (n + p) <= bounds.spinning_max_order)
            local = max(m for m in range(2, n + 1) if (m + 1) % p == 0)
            for m in sorted({n, local}, reverse=True):
                for d in divisors(m + 1):
                    yield m, d, p, top

    def test_answered_at_every_corner(self, capsys, time_limit):
        cases = list(self.corners())
        assert (31, 32, 2, 8) in cases and (27, 28, 7, 3) in cases and len(cases) == 34
        for n, d, p, top in cases:
            argv = ["enumerate", "--n", str(n), "--d", str(d), "--prime", str(p),
                    "--max-exp", str(top), "--oracle"]
            with time_limit(5):
                code, _, err = run(capsys, *argv)
            assert code == 0, argv
            assert "Traceback" not in err, argv


class TestCoeffsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2", "--d", "1", "--limit", "12")
        assert code == 0
        table = json.loads(out)
        assert table == [[m, 1 if m in (1, 3, 4, 9, 12) else 0] for m in range(1, 13)]

    def test_output_bytes_match_the_per_index_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "3", "--d", "4", "--limit", "500")
        assert code == 0
        z = global_zeta(3, 4)
        table = [[m, dirichlet_coeff(z, m)] for m in range(1, 501)]
        assert out == json.dumps(table, indent=2, sort_keys=True) + "\n"

    def test_small_limit(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2", "--d", "1", "--limit", "2")
        assert code == 0
        assert json.loads(out) == [[1, 1], [2, 0]]

    def test_bad_limit(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--n", "2", "--d", "1", "--limit", "0")
        assert code == 2

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(zeta, "dirichlet_coeffs", exhausted)
        code, out, err = run(capsys, "coeffs", "--n", "3", "--d", "4", "--limit", "10")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("n, d", [(2, 1), (3, 4), (5, 6)])
    def test_writer_matches_the_encoder_at_batch_edges(self, capsys, n, d):
        # The writer streams 4096 pairs at a time; the encoder is the oracle.
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        z = global_zeta(n, d)
        for limit in (1, 2, 4095, 4096, 4097, 8193):
            table = [[m, a] for m, a in enumerate(dirichlet_coeffs(z, limit), start=1)]
            argv = ["coeffs", "--n", str(n), "--d", str(d), "--limit", str(limit)]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == encoder.encode(table) + "\n", limit
            code, out, _ = run(capsys, *argv, "--format", "text")
            assert code == 0
            assert out == "".join(f"{m}\t{a}\n" for m, a in table), limit


class TestEnumerateCommand:
    def test_n2_chain(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--d", "1", "--prime", "3", "--max-exp", "4"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["counts"] == {str(e): 1 for e in range(5)}

    def test_n3_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--n",
            "3",
            "--d",
            "1",
            "--prime",
            "2",
            "--max-exp",
            "6",
            "--oracle",
        )
        assert code == 0
        blob = json.loads(out)
        assert [blob["counts"][str(e)] for e in range(7)] == [1, 0, 1, 1, 1, 1, 1]

    def test_with_lattices_lists_the_scaled_representatives(self, capsys):
        # At n = 2, p = 3 the index-3^e sublattice of L(1) is 3^a L(3^b), 2a + b = e.
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--prime", "3", "--max-exp", "4", "--with-lattices"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["counts"] == {str(e): 1 for e in range(5)}
        assert blob["lattices"] == {
            str(2 * a + b): [
                matrix_to_json(craig.scaled_lattice_basis(2, craig.ScaledCraigLattice(3, a, b)).hnf)
            ]
            for a in range(3)
            for b in range(2)
            if 2 * a + b <= 4
        }

    def test_with_lattices_refuses_the_text_format(self, capsys, monkeypatch):
        # The text form holds only the counts: refused before any work.
        monkeypatch.setattr(craig, "enumerate_p_sublattices", None)
        code, out, err = run(
            capsys, "enumerate", "--n", "2", "--prime", "3", "--max-exp", "4",
            "--with-lattices", "--format", "text",
        )
        assert (code, out) == (2, "")
        assert err == "error: --with-lattices needs --format json\n"

    def test_oracle_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(craig, "enumerate_index_sublattices", lambda *args: [])
        code, out, err = run(
            capsys, "enumerate", "--n", "2", "--prime", "3", "--max-exp", "2", "--oracle"
        )
        assert (code, out, err) == (1, "", "mismatch between walk and census at exponent 0\n")

    def test_inert_prime(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "4", "--d", "1", "--prime", "2", "--max-exp", "4"
        )
        assert code == 0
        blob = json.loads(out)
        assert [blob["counts"][str(e)] for e in range(5)] == [1, 0, 0, 0, 1]

    def test_composite_prime_rejected(self, capsys):
        code, _, _ = run(
            capsys, "enumerate", "--n", "2", "--d", "1", "--prime", "4", "--max-exp", "2"
        )
        assert code == 2

    def test_bounds_come_before_primality(self, capsys, monkeypatch):
        # The residue module F_p^3 prices far above the bound before the
        # primality test, and with --oracle the census range refuses p^1 > 500
        # first.
        def forbidden(*args):
            raise AssertionError("enumerate tested the primality of a refused prime")

        monkeypatch.setattr(cli, "is_prime", forbidden)
        argv = ["enumerate", "--n", "3", "--prime", "1000000000000000003", "--max-exp", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: spinning-scale-exceeded: residue module is too large\n"
        code, out, err = run(capsys, *argv, "--oracle")
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration-scale-exceeded")

    def test_huge_prime_at_exponent_zero(self, capsys):
        # No bound applies at --max-exp 0, so the primality test itself must be fast.
        argv = ["enumerate", "--n", "3", "--prime", "1000000000000000003", "--max-exp", "0"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"counts": {"0": 1}, "p": 1000000000000000003}

    def test_exponent_zero_builds_no_generators(self, capsys, monkeypatch, time_limit):
        # Index p^0 holds L(d) alone; the n^3 generators at n = 300 took seconds.
        def forbidden(*args):
            raise AssertionError("enumerate built generators at exponent 0")

        monkeypatch.setattr(specht, "craig_generators", forbidden)
        argv = ["enumerate", "--n", "300", "--d", "1", "--prime", "3", "--max-exp", "0"]
        with time_limit(2):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (0, '{\n  "counts": {\n    "0": 1\n  },\n  "p": 3\n}\n', "")
            code, out, err = run(capsys, *argv, "--oracle", "--format", "text")
            assert (code, out, err) == (0, "1\n", "")
            code, out, err = run(capsys, *argv[:4], "2", *argv[5:])
            assert (code, out, err) == (2, "", "requested lattice is not stable\n")
            code, out, err = run(capsys, *argv[:4], "0", *argv[5:])
            assert (code, out, err) == (2, "", "error: need n >= 2 and d >= 1\n")
        for n in ("1", "0", "-1"):
            for d in ("1", "2"):
                code, out, err = run(capsys, *argv[:2], n, "--d", d, *argv[5:])
                assert (code, out, err) == (2, "", "module dimension must be at least 2\n")
        code, out, err = run(capsys, "enumerate", "--n", "5", "--d", "3", "--prime", "2",
                             "--max-exp", "0", "--with-lattices")
        assert code == 0
        assert json.loads(out) == {
            "counts": {"0": 1},
            "lattices": {"0": [matrix_to_json(craig_lattice(5, 3).basis.hnf)]},
            "p": 2,
        }

    def test_prime_past_the_deterministic_range(self, capsys):
        argv = ["enumerate", "--n", "3", "--prime", "3317044064679887385961981", "--max-exp", "0"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: prime-scale-exceeded")

    @pytest.mark.parametrize("prime", ["0", "1", "-1"])
    def test_oracle_rejects_units_and_zero_as_primes(self, capsys, prime):
        # p^e never passes the census bound for these p, so primality decides.
        argv = ["enumerate", "--n", "3", "--prime", prime, "--max-exp", "2", "--oracle"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --prime must be a prime number\n")

    def test_oracle_scale_limit(self, capsys):
        code, _, err = run(
            capsys,
            "enumerate",
            "--n",
            "2",
            "--d",
            "1",
            "--prime",
            "3",
            "--max-exp",
            "12",
            "--oracle",
        )
        assert code == 2
        assert "scale" in err


class TestIdentifyCommand:
    def test_scaled_lattice(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(craig_lattice(2, 3).basis.scale(7).hnf)))
        code, out, _ = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert code == 0
        assert out.strip() == "3"

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(craig_lattice(2, 3).basis.scale(7).hnf)))
        code, out, _ = run(capsys, "identify", "--file", str(path), "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "d": 3}

    def test_dimension_differing_from_n_exits_two(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(craig_lattice(2, 3).basis.hnf)))
        code, out, err = run(capsys, "identify", "--file", str(path), "--n", "3")
        assert (code, out, err) == (2, "", "error: basis dimension does not match --n\n")

    def test_identity_basis(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        blob = {"rows": 5, "cols": 5, "entries": [[str(int(i == j)) for j in range(5)] for i in range(5)]}
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "identify", "--file", str(path), "--n", "5")
        assert code == 0
        assert out.strip() == "1"

    def test_unstable_exits_one(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(craig_lattice(2, 2).basis.hnf)))
        code, _, err = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert code == 1
        assert "not stable" in err

    @pytest.mark.parametrize(
        "n, rows",
        [
            (2, craig_lattice(2, 2).basis.hnf.entries),
            (3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ],
    )
    def test_unmatched_lattice_is_unstable(self, capsys, tmp_path, n, rows):
        # L(2) at n = 2 and diag(2, 1, 1) at n = 3 are no r L(d) with d | n+1.
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"rows": n, "cols": n, "entries": [list(r) for r in rows]}))
        code, out, err = run(capsys, "identify", "--file", str(path), "--n", str(n))
        assert (code, out, err) == (1, "", "lattice is not stable under the action\n")

    def test_identification_decides_stability(self, capsys, tmp_path, monkeypatch):
        # No stability pass is needed: matching r L(d) with d | n+1 proves
        # stability.
        def forbidden(*args):
            raise AssertionError("identify ran a stability pass")

        monkeypatch.setattr(craig, "is_g_stable", forbidden)
        path = tmp_path / "basis.json"
        for n, lat, want in (
            (60, craig_lattice(60, 61).basis, "61"),
            (4, craig_lattice(4, 1).basis.scale(6), "1"),
        ):
            path.write_text(json.dumps(matrix_to_json(lat.hnf)))
            code, out, err = run(capsys, "identify", "--file", str(path), "--n", str(n))
            assert (code, out, err) == (0, want + "\n", "")

    def test_dense_unstable_basis_at_64(self, capsys, tmp_path, time_limit):
        rng = random.Random(1)
        dense = IntMatrix([[rng.randint(-6, 6) for _ in range(64)] for _ in range(64)])
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(dense)))
        with time_limit(5):
            code, out, err = run(capsys, "identify", "--file", str(path), "--n", "64")
        assert (code, out) == (1, "")
        assert "not stable" in err

    def test_dense_basis_of_a_scaled_lattice_at_64(self, capsys, tmp_path, time_limit):
        # 3 L(5) at n = 64, hidden by 400 seeded elementary column operations.
        rng = random.Random(1)
        rows = [list(r) for r in craig_lattice(64, 5).basis.scale(3).hnf.entries]
        for _ in range(400):
            i, j = rng.sample(range(64), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            for r in rows:
                r[j] += c * r[i]
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(IntMatrix(rows))))
        with time_limit(5):
            code, out, err = run(capsys, "identify", "--file", str(path), "--n", "64")
        assert (code, out, err) == (0, "5\n", "")

    def test_dense_basis_of_the_wrong_size_is_refused_before_its_normal_form(
        self, capsys, tmp_path, time_limit
    ):
        rng = random.Random(1)
        dense = IntMatrix([[rng.randint(-6, 6) for _ in range(150)] for _ in range(150)])
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(matrix_to_json(dense)))
        with time_limit(5):
            code, out, err = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert (code, out, err) == (2, "", "error: basis dimension does not match --n\n")

    def test_singular_basis_of_the_wrong_size_reports_the_size(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": [[1, 2, 3], [2, 4, 6], [0, 0, 1]]}))
        code, out, err = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert (code, out, err) == (2, "", "error: basis dimension does not match --n\n")

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, err = run(capsys, "identify", "--file", str(missing), "--n", "3")
        assert code == 2
        assert err.startswith("error: ")
        assert str(missing) in err

    @pytest.mark.parametrize(
        "blob",
        [
            [[1, 0], [0, 1]],
            {"rows": 2, "cols": 2, "entries": [[1.7, 0], [0, 1]]},
            # well-formed matrices that span no lattice: bad input, not a failed identification
            {"rows": 2, "cols": 3, "entries": [[1, 0, 0], [0, 1, 0]]},
            {"rows": 2, "cols": 2, "entries": [[1, 2], [2, 4]]},
            # rows that are not lists, and a shape that is not integral
            {"rows": 2, "cols": 2, "entries": ["10", "01"]},
            {"rows": 2, "cols": 2, "entries": {"10": 0, "01": 0}},
            {"rows": 2, "cols": 2, "entries": [{"1": 0, "0": 0}, {"0": 0, "1": 0}]},
            {"rows": 2.0, "cols": 2.0, "entries": [[1, 0], [0, 1]]},
        ],
    )
    def test_malformed_json_exits_two(self, capsys, tmp_path, blob):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "identify", "--file", str(path), "--n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestClosedPipe:
    def test_reader_closing_early_leaves_no_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hookzeta.cli", "coeffs", "--n", "3", "--d", "4", "--limit", "200000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b"[")
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


class TestSpechtCommand:
    def test_n2_output(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "2")
        assert code == 0
        blob = json.loads(out)
        assert blob["d"] == 3
        assert blob["generators"][0]["entries"] == [["1", "0"], ["-1", "-1"]]
        assert blob["generators"][1]["entries"] == [["0", "1"], ["1", "0"]]

    def test_n3_identification(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "3")
        assert code == 0
        assert json.loads(out)["d"] == 4

    def test_n6_identification(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "6")
        assert code == 0
        assert json.loads(out)["d"] == 7

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "2", "--format", "text")
        assert code == 0
        assert out == (
            "d = 3\n"
            "s_1: [[1, 0], [-1, -1]]\n"
            "s_2: [[0, 1], [1, 0]]\n"
            "intertwiner: [[1, -1], [1, 2]]\n"
        )

    def test_oracle_mismatch_exits_one(self, capsys, monkeypatch):
        real = specht.specht_generators_oracle

        def swapped(n, bounds):
            gens = real(n, bounds)
            return specht.RepGenerators(n, gens.mats[::-1])

        monkeypatch.setattr(specht, "specht_generators_oracle", swapped)
        code, out, err = run(capsys, "specht", "--n", "3")
        assert (code, out, err) == (1, "", "closed Specht action disagrees with the oracle\n")

    def test_wrong_closed_family_exits_one(self, capsys, monkeypatch):
        # n = 8 is above the oracle bound, so only the intertwiner check
        # stands between a wrong closed rule and the output
        from hookzeta.exactmat import IntMatrix

        real = specht.specht_generators_closed

        def broken(n):
            gens = real(n)
            rows = [list(r) for r in gens.mats[0].entries]
            rows[1][0] = -rows[1][0]
            return specht.RepGenerators(n, (IntMatrix(rows),) + gens.mats[1:])

        monkeypatch.setattr(specht, "specht_generators_closed", broken)
        code, out, err = run(capsys, "specht", "--n", "8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_each_family_built_once(self, capsys, monkeypatch):
        names = ("specht_generators_closed", "craig_generators")
        for name in names:
            monkeypatch.setattr(specht, name, Mock(wraps=getattr(specht, name)))
        assert run(capsys, "specht", "--n", "8")[0] == 0
        assert [getattr(specht, name).call_count for name in names] == [1, 1]


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["specht_factor_arbitration"]["oracle_supports"] == "full"
        assert report["specht_factor_arbitration"]["implemented"] == "full"

    def test_text_format_lists_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2")
        assert code == 0
        assert "[pass]" in out
        assert "overall: pass" in out

    def test_report_names_the_checks_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "json")
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == [
            "Coxeter relations (standard coordinates)",
            "Coxeter relations (Specht coordinates)",
            "Specht action: closed rule vs polytabloid oracle",
            "transposition character equals 2 - n",
            "stability of L(d) exactly for divisors of n+1",
            "scaled-lattice closed forms (inclusion, intersection, index formula)",
            "maximal sublattice classification",
            "radical closed form",
            "radical interval contents",
            "radical interval split by isomorphism class",
            "every p-power sublattice is a scaled representative (and conversely)",
            "counting-series matrix inversion identity",
            "local factor equals row sum of partial series",
            "tridiagonal matrix from first principles (Moebius sums)",
            "local counting series vs sublattice walk",
            "inert primes contribute only scalings",
            "Euler product coefficients vs exhaustive census",
            "stable lattice splits as a sum of coprime scalings",
            "Specht lattice identification",
            "Specht lattice has a unique maximal sublattice of prime index",
            "normal form is unimodular-invariant and idempotent",
            "index is multiplicative along chains",
            "sum and intersection absorption laws",
            "coefficients multiplicative on coprime indices",
            "Specht local factor arbitration",
        ]

    def test_mutation_fails_naming_the_relations(self, capsys, monkeypatch):
        from hookzeta import verify as verify_mod
        from hookzeta.exactmat import IntMatrix
        from hookzeta.specht import RepGenerators

        real = craig_generators

        def broken(n):
            gens = real(n)
            rows = [list(r) for r in gens.mats[0].entries]
            rows[0][1] = -rows[0][1]
            mats = (IntMatrix(rows),) + gens.mats[1:]
            return RepGenerators(n, mats)

        monkeypatch.setattr(verify_mod.specht, "craig_generators", broken)
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "json")
        assert code == 1
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any("Coxeter" in name for name in failed)

    def test_text_output_gives_the_failing_detail(self, capsys, monkeypatch):
        from hookzeta import verify as verify_mod

        monkeypatch.setattr(verify_mod.specht, "verify_coxeter", lambda gens: gens.n != 2)
        code, out, _ = run(capsys, "verify", "--n-max", "2")
        assert code == 1
        assert "[FAIL] Coxeter relations (standard coordinates): failing n: [2]\n" in out
        assert "[pass] transposition character equals 2 - n\n" in out
        assert out.endswith("overall: FAIL\n")


class TestBoundOverrides:
    def test_index_bound_override(self, capsys):
        code, _, err = run(
            capsys,
            "--bound-index",
            "10",
            "enumerate",
            "--n",
            "2",
            "--d",
            "1",
            "--prime",
            "3",
            "--max-exp",
            "3",
            "--oracle",
        )
        assert code == 2
        assert "scale" in err

    def test_spin_bound_override(self, capsys):
        code, _, err = run(
            capsys,
            "--bound-spin",
            "4",
            "enumerate",
            "--n",
            "2",
            "--d",
            "1",
            "--prime",
            "3",
            "--max-exp",
            "1",
        )
        assert code == 2
        assert "spinning" in err

    def test_specht_bound_override(self, capsys):
        code, out, err = run(capsys, "--bound-specht-n", "5", "specht", "--n", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: specht-scale-exceeded")
        assert "Traceback" not in err
        code, out, _ = run(capsys, "--bound-specht-n", "6", "specht", "--n", "6")
        assert code == 0
        assert json.loads(out)["d"] == 7

    def test_specht_above_default_bound_computes_nothing(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("specht computed above its bound")

        monkeypatch.setattr(specht, "specht_generators_closed", forbidden)
        monkeypatch.setattr(specht, "closed_intertwiner", forbidden)
        code, out, err = run(capsys, "specht", "--n", "129")
        assert code == 2
        assert out == ""
        assert err.startswith("error: specht-scale-exceeded")

    def test_coeffs_limit_bound(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("coeffs computed above its bound")

        with monkeypatch.context() as patch:
            patch.setattr(zeta, "global_zeta", forbidden)
            patch.setattr(zeta, "dirichlet_coeffs", forbidden)
            code, out, err = run(capsys, "coeffs", "--n", "2", "--d", "1", "--limit", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: coeffs-scale-exceeded")
        code, out, err = run(
            capsys, "--bound-coeffs-limit", "5", "coeffs", "--n", "2", "--d", "1", "--limit", "6"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: coeffs-scale-exceeded")
        code, out, _ = run(
            capsys, "--bound-coeffs-limit", "6", "coeffs", "--n", "2", "--d", "1", "--limit", "6"
        )
        assert code == 0
        assert json.loads(out) == [[1, 1], [2, 0], [3, 1], [4, 1], [5, 0], [6, 0]]

    def test_each_bound_has_one_flag(self):
        # Each flag sets one field, with the field's default as its own: the
        # field is the one that differs between --bound-X 7 and --bound-X 8.
        parser = cli.build_parser()
        overridden = []
        for action in parser._actions:
            if not any(flag.startswith("--bound-") for flag in action.option_strings):
                continue
            assert action.help
            flag = action.option_strings[0]
            seven, eight = (
                cli._bounds_from_args(parser.parse_args([flag, value, "verify"]))
                for value in ("7", "8")
            )
            (name,) = [
                field.name
                for field in dataclasses.fields(Bounds)
                if getattr(seven, field.name) != getattr(eight, field.name)
            ]
            assert seven == dataclasses.replace(DEFAULT_BOUNDS, **{name: 7}), flag
            assert action.default == getattr(DEFAULT_BOUNDS, name), flag
            overridden.append(name)
        assert sorted(overridden) == sorted(field.name for field in dataclasses.fields(Bounds))

    def test_oracle_range_check_forms_no_power(self, capsys):
        # 1000003**100000000 would not finish; the check compares exponents.
        code, out, err = run(
            capsys,
            "enumerate",
            "--n",
            "2",
            "--d",
            "1",
            "--prime",
            "1000003",
            "--max-exp",
            "100000000",
            "--oracle",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration-scale-exceeded")

    def test_walk_exponent_bound(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("enumerate computed above its bound")

        argv = ["enumerate", "--n", "2", "--d", "1", "--prime", "3", "--max-exp"]
        with monkeypatch.context() as patch:
            patch.setattr(craig, "is_g_stable", forbidden)
            patch.setattr(craig, "enumerate_p_sublattices", forbidden)
            code, out, err = run(capsys, *argv, "1000000")
            assert (code, out) == (2, "")
            assert err.startswith("error: walk-scale-exceeded")
            code, out, err = run(capsys, "--bound-max-exp", "3", *argv, "4")
            assert (code, out) == (2, "")
            assert err.startswith("error: walk-scale-exceeded")
        code, out, _ = run(capsys, "--bound-max-exp", "4", *argv, "4", "--format", "text")
        assert (code, out) == (0, "1 1 1 1 1\n")

    def test_walk_checks_scale_and_stability_first(self, capsys, monkeypatch):
        # At n = 200 the residue module prices at 200^3 * 202 > 10^6, so the
        # walk is refused before L(d) or a generator is built; L(2) at n = 4
        # is unstable since 2 does not divide 5, which needs no generator.
        def forbidden(*args):
            raise AssertionError("enumerate built what its checks refuse")

        with monkeypatch.context() as patch:
            patch.setattr(specht, "craig_generators", forbidden)
            patch.setattr(craig, "is_g_stable", forbidden)
            patch.setattr(craig, "craig_lattice", forbidden)
            code, out, err = run(
                capsys, "enumerate", "--n", "200", "--prime", "2", "--max-exp", "1"
            )
            assert (code, out) == (2, "")
            assert err == "error: spinning-scale-exceeded: residue module is too large\n"
        with monkeypatch.context() as patch:
            patch.setattr(specht, "craig_generators", forbidden)
            patch.setattr(craig, "is_g_stable", forbidden)
            argv = ["enumerate", "--n", "4", "--prime", "2", "--max-exp", "1", "--d"]
            code, out, err = run(capsys, *argv, "2")
            assert (code, out, err) == (2, "", "requested lattice is not stable\n")
            code, out, err = run(capsys, *argv, "0")
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "Traceback" not in err
        code, out, _ = run(capsys, *argv, "5", "--format", "text")
        assert (code, out) == (0, "1 0\n")

    def test_tripped_spin_bound_stops_verify(self, capsys):
        code, out, err = run(capsys, "--bound-spin", "5", "verify", "--n-max", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: spinning-scale-exceeded")
        assert "Traceback" not in err

    def test_verify_refuses_its_grid_before_any_check(self, capsys, monkeypatch, time_limit):
        # Under the default bounds the residue module at (28, 29) is too large;
        # the refusal comes before the first check, not after minutes of them.
        from hookzeta import verify as verify_mod

        def forbidden(*args):
            raise AssertionError("a check ran before the refusal")

        monkeypatch.setattr(verify_mod, "check_coxeter_standard", forbidden)
        with time_limit(5):
            code, out, err = run(capsys, "verify", "--n-max", "40")
        assert (code, out) == (2, "")
        assert err == "error: spinning-scale-exceeded: residue module is too large\n"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ["coeffs", "--n", "3", "--d", "2", "--limit", "30"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_verify_deterministic_with_seed(self, capsys):
        argv = ["verify", "--n-max", "2", "--seed", "42", "--format", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
