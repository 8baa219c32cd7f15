"""tools/line_trace.py: which lines it counts as executable and as run."""

import importlib.util
import io
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "line_trace.py"
_SPEC = importlib.util.spec_from_file_location("line_trace", _PATH)
line_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_trace)

_SAMPLE = '''\
"""A docstring runs as the module's first statement."""
import functools


def sign(x):
    if x > 0:
        return "positive"
    else:
        # neither this line nor the else above holds an instruction
        return "not positive"   # never run


@functools.lru_cache
def never_called(y):
    return [v                  # a comprehension spread over two lines
            for v in y]


class Pair:
    def first(self):
        return 1             # never run

    def both(self):
        yield 1
        yield 2

    other = None
'''


def _load_and_call(path):
    spec = importlib.util.spec_from_file_location("line_trace_sample", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.sign(1), list(mod.Pair().both())


def test_executable_lines_are_those_some_code_object_maps_to(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE, encoding="utf-8")
    # each def, decorator and class line and both lines of the comprehension;
    # not the blank lines, the else or the comment-only line
    assert line_trace.executable_lines(path) == {
        1, 2, 5, 6, 7, 10, 13, 14, 15, 16, 19, 20, 21, 23, 24, 25, 27}


def test_trace_reports_each_line_the_call_never_ran(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE, encoding="utf-8")
    result, ran = line_trace.run_traced(lambda: _load_and_call(path), [str(path)])
    assert result == ("positive", [1, 2])
    misses = line_trace.missed(ran)
    assert misses == {str(path): [10, 15, 16, 21]}
    out = io.StringIO()
    assert line_trace.report(misses, out, root=tmp_path) == 4
    assert out.getvalue().splitlines() == [
        'sample.py:10: return "not positive"   # never run',
        "sample.py:15: return [v                  # a comprehension spread over two lines",
        "sample.py:16: for v in y]",
        "sample.py:21: return 1             # never run",
        "sample.py: 4 not run",
        "total: 4 not run",
    ]


def test_trace_sees_only_the_files_it_is_given_and_restores_the_tracer(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE, encoding="utf-8")
    other = tmp_path / "other.py"
    other.write_text("x = 1\n", encoding="utf-8")
    before = line_trace.sys.gettrace()
    _, ran = line_trace.run_traced(lambda: _load_and_call(path), [str(other)])
    assert ran == {str(other): set()}
    assert line_trace.sys.gettrace() is before
