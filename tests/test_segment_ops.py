from conftest import load_script

SEGMENT_OPS = load_script("segment_ops")
ARGS = ["--workload", "bulk_reno", "--seed", "1", "--job", "0", "--seconds", "0.2"]


def test_segment_ops_repeats_exactly_and_its_rows_sum_to_the_totals(capsys):
    # an opcode count, not a timing: the same job prints the same numbers twice
    printed = []
    for _ in range(2):
        assert SEGMENT_OPS.main(ARGS) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    header, columns, *rows, total = printed[0].splitlines()
    assert header == ("bulk_reno job 0 (bulk0, BASELINE, trace 0), seed 1, 0.200000 simulated s: "
                      "93 data segments")
    assert columns.split() == ["bytecodes", "calls", "bytecodes/seg", "calls/seg", "function"]
    counts = [tuple(map(int, row.split()[:2])) for row in rows]
    functions = [row.split()[4] for row in rows]
    assert len(set(functions)) == len(rows)
    assert {"net.py:DirectedLink.transmit", "tcp.py:TcpSender._emit"} <= set(functions)
    ops, calls, ops_per, calls_per, label = total.split()
    assert label == "total"
    assert (int(ops), int(calls)) == tuple(map(sum, zip(*counts)))
    assert (ops_per, calls_per) == (f"{int(ops) / 93:.1f}", f"{int(calls) / 93:.2f}")
