"""Tests for the file-level prio tool (Sec. 3.2 integration)."""

import pytest

from repro.cli import main
from repro.core.tool import prioritize_dagman, prioritize_dagman_file
from repro.dagman.parser import parse_dagman_text

FIG3 = """\
JOB a a.sub
JOB b b.sub
JOB c c.sub
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""

JSDF = """\
executable = /bin/work
universe = vanilla
queue
"""


class TestPrioritizeDagman:
    def test_sets_fig3_priorities(self):
        dagman = parse_dagman_text(FIG3)
        result = prioritize_dagman(dagman)
        assert result.priorities == {"a": 4, "b": 3, "c": 5, "d": 2, "e": 1}
        assert dagman.get_priority("c") == 5

    def test_renders_vars_lines(self):
        dagman = parse_dagman_text(FIG3)
        prioritize_dagman(dagman)
        text = dagman.render()
        assert 'VARS c jobpriority="5"' in text
        assert text.startswith("JOB a a.sub")  # original lines preserved

    def test_idempotent(self):
        dagman = parse_dagman_text(FIG3)
        prioritize_dagman(dagman)
        first = dagman.render()
        prioritize_dagman(dagman)
        assert dagman.render() == first

    def test_summary_mentions_jobs_and_blocks(self):
        dagman = parse_dagman_text(FIG3)
        result = prioritize_dagman(dagman)
        assert "5 jobs" in result.summary()
        assert "2 building blocks" in result.summary()


class TestRescueMode:
    RESCUE = """\
JOB a a.sub DONE
JOB b b.sub
JOB c c.sub DONE
JOB d d.sub
JOB e e.sub
PARENT a CHILD b
PARENT c CHILD d e
"""

    def test_done_jobs_get_zero_priority(self):
        dagman = parse_dagman_text(self.RESCUE)
        result = prioritize_dagman(dagman, respect_done=True)
        assert result.priorities["a"] == 0
        assert result.priorities["c"] == 0
        assert sorted(
            result.priorities[j] for j in "bde"
        ) == [1, 2, 3]

    def test_ignored_without_flag(self):
        dagman = parse_dagman_text(self.RESCUE)
        result = prioritize_dagman(dagman)
        assert result.priorities["c"] == 5

    def test_remnant_priorities_reflect_remnant_structure(self):
        # With a and c done, the remnant is three independent jobs; they
        # all get some positive priority and the file round-trips.
        dagman = parse_dagman_text(self.RESCUE)
        prioritize_dagman(dagman, respect_done=True)
        assert 'VARS a jobpriority="0"' in dagman.render()

    def test_non_closed_done_set_rejected(self):
        text = "JOB a a.sub\nJOB b b.sub DONE\nPARENT a CHILD b\n"
        dagman = parse_dagman_text(text)
        with pytest.raises(ValueError, match="closed"):
            prioritize_dagman(dagman, respect_done=True)

    def test_file_level_rescue(self, tmp_path):
        path = tmp_path / "rescue.dag"
        path.write_text(self.RESCUE)
        result = prioritize_dagman_file(path, respect_done=True)
        assert result.priorities["a"] == 0
        assert 'jobpriority="0"' in path.read_text()


class TestPrioritizeFile:
    def _write_workflow(self, tmp_path, jsdfs=True):
        dagfile = tmp_path / "IV.dag"
        dagfile.write_text(FIG3)
        if jsdfs:
            for name in "abcde":
                (tmp_path / f"{name}.sub").write_text(JSDF)
        return dagfile

    def test_in_place(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        prioritize_dagman_file(dagfile)
        assert 'jobpriority="5"' in dagfile.read_text()

    def test_output_path_leaves_original(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        out = tmp_path / "IV_prio.dag"
        prioritize_dagman_file(dagfile, output=out)
        assert "jobpriority" not in dagfile.read_text()
        assert 'jobpriority="5"' in out.read_text()

    def test_instruments_jsdfs(self, tmp_path):
        dagfile = self._write_workflow(tmp_path)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.instrumented_jsdfs) == 5
        assert "priority = $(jobpriority)" in (tmp_path / "c.sub").read_text()
        # the priority line lands before queue
        lines = (tmp_path / "c.sub").read_text().splitlines()
        assert lines.index("priority = $(jobpriority)") < lines.index("queue")

    def test_missing_jsdfs_reported_not_fatal(self, tmp_path):
        dagfile = self._write_workflow(tmp_path, jsdfs=False)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.missing_jsdfs) == 5
        assert result.instrumented_jsdfs == []

    def test_shared_jsdf_instrumented_once(self, tmp_path):
        dagfile = tmp_path / "shared.dag"
        dagfile.write_text(
            "JOB x common.sub\nJOB y common.sub\nPARENT x CHILD y\n"
        )
        (tmp_path / "common.sub").write_text(JSDF)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert len(result.instrumented_jsdfs) == 1
        text = (tmp_path / "common.sub").read_text()
        assert text.count("priority = $(jobpriority)") == 1

    def test_dir_directive_respected(self, tmp_path):
        (tmp_path / "subdir").mkdir()
        dagfile = tmp_path / "d.dag"
        dagfile.write_text("JOB x x.sub DIR subdir\n")
        (tmp_path / "subdir" / "x.sub").write_text(JSDF)
        result = prioritize_dagman_file(dagfile, instrument_jsdfs=True)
        assert result.instrumented_jsdfs == [str(tmp_path / "subdir" / "x.sub")]

    def test_subdag_file_not_instrumented(self, tmp_path):
        dagfile = tmp_path / "outer.dag"
        dagfile.write_text(
            "JOB x x.sub\nSUBDAG EXTERNAL inner inner.dag\n"
            "PARENT x CHILD inner\n"
        )
        (tmp_path / "x.sub").write_text(JSDF)
        nested = tmp_path / "inner.dag"
        nested.write_text("JOB n n.sub\n")
        before = nested.read_bytes()
        result = prioritize_dagman_file(
            dagfile, output=tmp_path / "out.dag", instrument_jsdfs=True
        )
        assert nested.read_bytes() == before
        assert str(nested) not in result.instrumented_jsdfs
        assert str(nested) not in result.missing_jsdfs
        assert result.instrumented_jsdfs == [str(tmp_path / "x.sub")]

    def test_prio_kwargs_forwarded(self, tmp_path):
        dagfile = self._write_workflow(tmp_path, jsdfs=False)
        result = prioritize_dagman_file(dagfile, combine="topological")
        # topological combine emits block {a,b} first: a gets top priority.
        assert result.priorities["a"] == 5


class TestSpliceFiles:
    """SPLICE files go through the importer, as ``prio import`` does."""

    INNER = """\
JOB in1 in1.sub
JOB in2 in2.sub
JOB in3 in3.sub
PARENT in1 CHILD in2
PARENT in1 CHILD in3
VARS in2 site="remote"
"""

    OUTER = """\
JOB setup setup.sub
JOB teardown teardown.sub
SPLICE block inner.dag
PARENT setup CHILD block
PARENT block CHILD teardown
"""

    def _write(self, tmp_path, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        return tmp_path / "outer.dag"

    def _prio_and_import(self, outer, tmp_path):
        a, b = tmp_path / "A.dag", tmp_path / "B.dag"
        assert main(["prio", str(outer), "-o", str(a)]) == 0
        assert main([
            "import", str(outer), "--prioritize", "--no-subdags",
            "-o", str(b),
        ]) == 0
        return a.read_bytes(), b.read_bytes()

    def test_tool_integration(self, tmp_path):
        self._write(
            tmp_path, {"inner.dag": self.INNER, "outer.dag": self.OUTER}
        )
        with pytest.raises(ValueError, match="SPLICE"):
            prioritize_dagman_file(tmp_path / "outer.dag")
        out = tmp_path / "flat.dag"
        result = prioritize_dagman_file(tmp_path / "outer.dag", output=out)
        assert result.priorities["setup"] == 5
        text = out.read_text()
        assert "JOB block+in1" in text
        assert 'VARS block+in1 jobpriority=' in text

    def test_splice_output_matches_import_render(self, tmp_path, capsys):
        outer = self._write(
            tmp_path, {"inner.dag": self.INNER, "outer.dag": self.OUTER}
        )
        a, b = self._prio_and_import(outer, tmp_path)
        assert a == b

    def test_subdag_retry_and_script_lines_kept(self, tmp_path, capsys):
        outer = self._write(tmp_path, {
            "outer.dag": (
                "JOB setup setup.sub\n"
                "SPLICE block inner.dag\n"
                "SUBDAG EXTERNAL nested nested.dag\n"
                "PARENT setup CHILD block\n"
                "PARENT block CHILD nested\n"
            ),
            "inner.dag": (
                "JOB in1 in1.sub\n"
                "JOB in2 in2.sub\n"
                "PARENT in1 CHILD in2\n"
                "RETRY in1 3\n"
                "SCRIPT POST in2 check.sh $(JOB)\n"
            ),
            "nested.dag": "JOB n n.sub\n",
        })
        a, b = self._prio_and_import(outer, tmp_path)
        lines = a.decode().splitlines()
        assert "SUBDAG EXTERNAL nested nested.dag" in lines
        assert "RETRY block+in1 3" in lines
        assert "SCRIPT POST block+in2 check.sh $(JOB)" in lines
        assert a == b
