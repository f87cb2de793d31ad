"""Unit tests for shared utilities and the command-line interface."""

from fractions import Fraction

import pytest

from repro.cli import main
from repro.utils import (
    binomial,
    matrix_rank_exact,
    multiset_key,
    pairs,
    partition_moebius,
    powerset,
    set_partitions,
    solve_linear_system_exact,
    vandermonde_solve,
)


class TestLinearAlgebra:
    def test_solve_identity(self):
        assert solve_linear_system_exact([[1, 0], [0, 1]], [3, 4]) == [
            Fraction(3), Fraction(4),
        ]

    def test_solve_requires_square(self):
        with pytest.raises(ValueError):
            solve_linear_system_exact([[1, 2]], [1])

    def test_solve_singular_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system_exact([[1, 1], [2, 2]], [1, 2])

    def test_solve_exactness(self):
        # A system whose float solution would drift.
        matrix = [[10 ** 12, 1], [1, 1]]
        rhs = [10 ** 12 + 2, 3]
        x = solve_linear_system_exact(matrix, rhs)
        assert x == [Fraction(1), Fraction(2)]

    def test_rank(self):
        assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
        assert matrix_rank_exact([[1, 0], [0, 1]]) == 2
        assert matrix_rank_exact([]) == 0
        assert matrix_rank_exact([[0, 0], [0, 0]]) == 0

    def test_vandermonde(self):
        # f(x) = 2 + 3x: values at 1, 2 are 5, 8.
        coefficients = vandermonde_solve([1, 2], [5, 8])
        assert coefficients == [Fraction(2), Fraction(3)]

    def test_vandermonde_distinct_points(self):
        with pytest.raises(ValueError):
            vandermonde_solve([1, 1], [2, 3])


class TestCombinatorics:
    def test_set_partitions_bell_numbers(self):
        # Bell numbers: 1, 1, 2, 5, 15.
        assert sum(1 for _ in set_partitions([])) == 1
        assert sum(1 for _ in set_partitions([1])) == 1
        assert sum(1 for _ in set_partitions([1, 2])) == 2
        assert sum(1 for _ in set_partitions([1, 2, 3])) == 5
        assert sum(1 for _ in set_partitions([1, 2, 3, 4])) == 15

    def test_partitions_cover_all_elements(self):
        for partition in set_partitions([1, 2, 3]):
            flat = sorted(x for block in partition for x in block)
            assert flat == [1, 2, 3]

    def test_moebius_values(self):
        assert partition_moebius([[1], [2], [3]]) == 1
        assert partition_moebius([[1, 2], [3]]) == -1
        assert partition_moebius([[1, 2, 3]]) == 2

    def test_moebius_sums_to_zero(self):
        """Σ_P μ(0̂, P) = 0 for n ≥ 2 (Möbius inversion sanity)."""
        total = sum(partition_moebius(p) for p in set_partitions([1, 2, 3]))
        assert total == 0

    def test_pairs(self):
        assert list(pairs([1, 2, 3])) == [(1, 2), (1, 3), (2, 3)]

    def test_powerset(self):
        assert list(powerset([1, 2])) == [(), (1,), (2,), (1, 2)]

    def test_multiset_key(self):
        assert multiset_key([3, 1, 2, 1]) == (1, 1, 2, 3)

    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0


class TestCli:
    def test_wl_dim_command(self, capsys):
        code = main(["wl-dim", "q(x1, x2) :- E(x1, y), E(x2, y)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_analyze_command(self, capsys):
        code = main(["analyze", "q(x1, x2) :- E(x1, y), E(x2, y)"])
        assert code == 0
        output = capsys.readouterr().out
        assert "wl_dimension" in output
        assert "semantic_extension_width" in output

    def test_witness_command(self, capsys):
        code = main([
            "witness", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--max-multiplicity", "1",
        ])
        assert code == 0
        assert "ALL CHECKS PASS     True" in capsys.readouterr().out

    def test_dominating_command(self, capsys):
        code = main(["dominating", "--n", "6", "--p", "0.5", "--k", "2", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "brute-force count" in output

    def test_parse_error_reported(self, capsys):
        code = main(["wl-dim", "q(x) :- R(x, y)"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_encode_stats_command(self, capsys):
        code = main([
            "encode-stats", "--generator", "cycle", "--n", "24", "--rich-labels",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "encode (CSR + codec)" in output
        assert "IndexedGraph bytes" in output

    def test_encode_stats_json(self, capsys):
        import json

        code = main([
            "encode-stats", "--generator", "random", "--n", "20", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "encode-stats"
        assert payload["vertices"] == 20
        assert payload["indexed_bytes"] > 0
        assert len(payload["structural_digest"]) == 64


class TestCliExtended:
    def test_count_command(self, capsys):
        code = main([
            "count", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--n", "7", "--seed", "3", "--interpolate",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "|Ans|" in output
        assert "[ok]" in output

    def test_count_with_graph6(self, capsys):
        from repro.graphs import cycle_graph
        from repro.graphs.io import to_graph6

        code = main([
            "count", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--graph6", to_graph6(cycle_graph(5)),
        ])
        assert code == 0
        assert "|Ans| 15" in capsys.readouterr().out

    def test_count_batch(self, capsys):
        code = main([
            "count", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--n", "6", "--seed", "2", "--batch", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("|Ans|") == 3
        assert "engine:" in output

    def test_engine_stats_command(self, capsys):
        code = main([
            "engine-stats", "--tw", "1", "--max-pattern-vertices", "4",
            "--targets", "3", "--n", "6",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "plan kinds" in output
        assert "count_hit_rate" in output

    def test_union_command(self, capsys):
        code = main([
            "union",
            "q(x1, x2) :- E(x1, y), E(x2, y) ; q(x1, x2) :- E(x1, x2)",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "hsew = WL-dim    2" in output

    def test_union_mismatched_free_variables(self, capsys):
        code = main(["union", "q(x) :- E(x, y) ; q(a, b) :- E(a, b)"])
        assert code == 2


class TestCliJson:
    """--json output must match the service API payload shapes exactly."""

    def test_wl_dim_json(self, capsys):
        import json

        code = main(["wl-dim", "q(x1, x2) :- E(x1, y), E(x2, y)", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "wl-dim"
        assert payload["wl_dimension"] == 2

    def test_analyze_json(self, capsys):
        import json

        code = main(["analyze", "q(x1) :- E(x1, y)", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analyze"
        assert payload["analysis"]["wl_dimension"] == 1

    def test_count_json_single_host(self, capsys):
        import json

        code = main([
            "count", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--n", "7", "--seed", "3", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "count-answers"
        assert payload["count"] == 25
        assert payload["method"].startswith("answer-plan(core=3, sew=2, tables=1)")

    def test_count_json_batch(self, capsys):
        import json

        code = main([
            "count", "q(x1, x2) :- E(x1, y), E(x2, y)",
            "--n", "6", "--seed", "2", "--batch", "3", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "count-answers-batch"
        assert len(payload["results"]) == 3
        assert "engine" in payload

    def test_cli_payload_matches_service_payload(self, capsys):
        """True CLI/service parity: the `--json` stdout of the CLI equals
        the HTTP response of the service for the same query and host."""
        import json

        from repro.engine import set_default_engine
        from repro.graphs import random_graph
        from repro.graphs.io import to_graph6
        from repro.service import BackgroundServer, ServiceClient

        text = "q(x1, x2) :- E(x1, y), E(x2, y)"
        host = random_graph(7, 0.4, seed=3)

        assert main(["count", text, "--graph6", to_graph6(host), "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)

        try:
            with BackgroundServer(workers=1) as server:
                service_payload = ServiceClient(port=server.port).count_answers(
                    text, host,
                )
        finally:
            set_default_engine(None)
        assert cli_payload == service_payload

        assert main(["wl-dim", text, "--json"]) == 0
        cli_wl = json.loads(capsys.readouterr().out)
        try:
            with BackgroundServer(workers=1) as server:
                service_wl = ServiceClient(port=server.port).wl_dim(text)
        finally:
            set_default_engine(None)
        assert cli_wl == service_wl

    def test_engine_stats_persistent(self, capsys, tmp_path):
        args = [
            "engine-stats", "--tw", "1", "--max-pattern-vertices", "4",
            "--targets", "3", "--n", "6", "--persistent", str(tmp_path / "tier"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "persistent tier" in cold
        assert "counts_stored" in cold
        # second run on the same directory starts warm
        assert main(args) == 0
        warm = capsys.readouterr().out
        compiled = [
            line for line in warm.splitlines() if "plans_compiled" in line
        ]
        assert compiled and compiled[0].split()[-1] == "0"


class TestCliServeClient:
    def test_client_against_background_server(self, capsys):
        import json

        from repro.engine import set_default_engine
        from repro.graphs import cycle_graph
        from repro.graphs.io import to_graph6
        from repro.service import BackgroundServer

        try:
            with BackgroundServer(workers=2) as server:
                port = str(server.port)
                assert main(["client", "--port", port, "health"]) == 0
                assert json.loads(capsys.readouterr().out)["status"] == "ok"

                assert main([
                    "client", "--port", port, "register", "--name", "hosts",
                    "--n", "10", "--p", "0.4", "--seed", "2",
                ]) == 0
                assert json.loads(capsys.readouterr().out)["vertices"] == 10

                assert main([
                    "client", "--port", port, "count",
                    "--pattern-graph6", to_graph6(cycle_graph(4)),
                    "--target", "hosts",
                ]) == 0
                count_payload = json.loads(capsys.readouterr().out)
                assert count_payload["kind"] == "count"
                assert count_payload["count"] > 0

                assert main([
                    "client", "--port", port, "count-answers",
                    "q(x1, x2) :- E(x1, y), E(x2, y)", "--target", "hosts",
                ]) == 0
                answers = json.loads(capsys.readouterr().out)
                assert answers["kind"] == "count-answers"

                assert main(["client", "--port", port, "stats"]) == 0
                stats = json.loads(capsys.readouterr().out)
                assert stats["engine"]["count_requests"] >= 1
        finally:
            set_default_engine(None)

    def test_client_unreachable_server_reports_error(self, capsys):
        code = main(["client", "--port", "1", "health"])
        assert code == 2
        assert "error" in capsys.readouterr().err
