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
    lines = printed[0].splitlines()
    blank = lines.index("")
    header, columns, *rows, total = lines[:blank]
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

    # the C calls: one row per C function and caller, summing to the total
    c_columns, *c_rows, c_total = lines[blank + 1:]
    assert c_columns.split() == ["C", "calls", "calls/seg", "C", "function", "caller"]
    c_counts = [int(row.split()[0]) for row in c_rows]
    keys = [tuple(row.split()[2:]) for row in c_rows]
    assert len(set(keys)) == len(c_rows) and all(len(key) == 2 for key in keys)
    assert c_counts == sorted(c_counts, reverse=True) and min(c_counts) > 0
    assert ("next", "tcp.py:TcpSender._emit") in keys  # one key drawn per data segment
    calls, calls_per, label = c_total.split()
    assert label == "total"
    assert int(calls) == sum(c_counts)
    assert calls_per == f"{int(calls) / 93:.2f}"
