"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main
from repro.graph.dimacs import save_dimacs
from repro.graph.generators import road_network


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.k == 5 and args.density == 0.01


class TestCommands:
    def test_query_agreement(self, capsys):
        rc = main(
            ["query", "--vertices", "300", "--k", "3", "--query", "10",
             "--methods", "ine", "gtree", "ier-phl"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all methods agree" in out

    def test_query_travel_time(self, capsys):
        rc = main(
            ["query", "--vertices", "250", "--travel-time",
             "--methods", "ine", "gtree"]
        )
        assert rc == 0

    def test_query_auto_method(self, capsys):
        rc = main(
            ["query", "--vertices", "250", "--k", "3",
             "--methods", "auto", "ine"]
        )
        assert rc == 0
        assert "all methods agree" in capsys.readouterr().out

    def test_query_bad_method_lists_known(self, capsys):
        rc = main(["query", "--vertices", "250", "--methods", "quantum"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown method 'quantum'" in err
        assert "ine" in err and "gtree" in err

    def test_query_rejects_the_removed_kernel_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--vertices", "250", "--kernel", "array"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_compare_bad_method_lists_known(self, capsys):
        rc = main(["compare", "--vertices", "250", "--methods", "quantum"])
        assert rc == 2
        assert "known methods" in capsys.readouterr().err

    def test_query_all_methods_unavailable(self, capsys, cap_silc):
        cap_silc(50)
        rc = main(["query", "--vertices", "200", "--methods", "disbrw"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unavailable" in err and "no runnable methods" in err

    def test_methods_listing(self, capsys):
        rc = main(["methods", "--vertices", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ine" in out and "disbrw" in out and "summary" in out

    def test_methods_listing_with_graph(self, capsys):
        rc = main(["methods", "--vertices", "150"])
        assert rc == 0
        assert "availability on" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--vertices", "250", "--k", "3", "--queries", "4",
             "--densities", "0.05", "--methods", "ine", "gtree"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ine" in out and "gtree" in out

    def test_info_synthetic(self, capsys):
        rc = main(["info", "--vertices", "200"])
        assert rc == 0
        assert "degree-2 share" in capsys.readouterr().out

    def test_info_dimacs(self, tmp_path, capsys):
        graph = road_network(150, seed=2)
        gr, co = str(tmp_path / "g.gr"), str(tmp_path / "g.co")
        save_dimacs(graph, gr, co)
        rc = main(["info", "--gr", gr, "--co", co])
        assert rc == 0
        assert "CSR footprint" in capsys.readouterr().out


class TestServingCommands:
    @pytest.mark.parametrize("command", ["serve", "trace"])
    def test_rejects_unknown_method(self, command, capsys, monkeypatch):
        from repro.server import KNNServer

        started = []
        monkeypatch.setattr(
            KNNServer, "start", lambda self, **kw: started.append(command)
        )
        monkeypatch.setattr(
            "repro.cli._engine_and_objects",
            lambda args: started.append(command),
        )
        rc = main([command, "--vertices", "200", "--method", "quantum"])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err
        assert started == []

    def test_serve_answers_stdin_queries(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("42 3\n7 2 ine\nbogus\n"))
        rc = main(["serve", "--vertices", "300", "--workers", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.count("ok ") == 2
        assert "bad request line" in captured.err
        assert "index builds while serving: 0" in captured.out
