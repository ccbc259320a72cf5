"""Tests for the DAGMan input-file parser."""

import pytest

from repro.dagman.parser import DagmanParseError, parse_dagman_file, parse_dagman_text


class TestJobStatements:
    def test_basic_job(self):
        f = parse_dagman_text("JOB a a.sub\n")
        assert f.jobs["a"].submit_file == "a.sub"
        assert not f.jobs["a"].is_data

    def test_case_insensitive_keyword(self):
        f = parse_dagman_text("job a a.sub\nJoB b b.sub\n")
        assert list(f.jobs) == ["a", "b"]

    def test_dir_noop_done_flags(self):
        f = parse_dagman_text("JOB a a.sub DIR work NOOP DONE\n")
        decl = f.jobs["a"]
        assert decl.directory == "work" and decl.noop and decl.done

    def test_data_job(self):
        f = parse_dagman_text("DATA d transfer.sub\n")
        assert f.jobs["d"].is_data

    def test_duplicate_job_rejected(self):
        with pytest.raises(DagmanParseError, match="duplicate"):
            parse_dagman_text("JOB a a.sub\nJOB a other.sub\n")

    def test_missing_submit_file_rejected(self):
        with pytest.raises(DagmanParseError, match="submit file"):
            parse_dagman_text("JOB a\n")

    def test_unknown_job_flag_rejected(self):
        with pytest.raises(DagmanParseError, match="unexpected"):
            parse_dagman_text("JOB a a.sub FROBNICATE\n")

    def test_dir_without_value_rejected(self):
        with pytest.raises(DagmanParseError, match="DIR"):
            parse_dagman_text("JOB a a.sub DIR\n")


class TestParentChild:
    def test_single_pair(self):
        f = parse_dagman_text("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n")
        assert f.arcs == [("a", "b")]

    def test_cross_product(self):
        text = (
            "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nJOB d d.sub\n"
            "PARENT a b CHILD c d\n"
        )
        f = parse_dagman_text(text)
        assert set(f.arcs) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}

    def test_missing_child_keyword(self):
        with pytest.raises(DagmanParseError, match="CHILD"):
            parse_dagman_text("PARENT a b\n")

    def test_empty_sides_rejected(self):
        with pytest.raises(DagmanParseError, match="each side"):
            parse_dagman_text("PARENT CHILD b\n")

    def test_self_dependency_rejected(self):
        with pytest.raises(DagmanParseError, match="itself"):
            parse_dagman_text("PARENT a CHILD a\n")


class TestVars:
    def test_single_macro(self):
        f = parse_dagman_text('JOB a a.sub\nVARS a key="value"\n')
        assert f.vars_["a"] == {"key": "value"}

    def test_multiple_macros_one_line(self):
        f = parse_dagman_text('JOB a a.sub\nVARS a x="1" y="2"\n')
        assert f.vars_["a"] == {"x": "1", "y": "2"}

    def test_escaped_quotes(self):
        f = parse_dagman_text('JOB a a.sub\nVARS a msg="say \\"hi\\""\n')
        assert f.vars_["a"]["msg"] == 'say "hi"'

    def test_existing_jobpriority_is_tracked(self):
        f = parse_dagman_text('JOB a a.sub\nVARS a jobpriority="7"\n')
        assert f.get_priority("a") == 7
        f.set_priority("a", 9)
        # replaced in place, not duplicated
        assert f.render().count("jobpriority") == 1
        assert 'jobpriority="9"' in f.render()

    def test_malformed_vars_rejected(self):
        with pytest.raises(DagmanParseError, match="assignments"):
            parse_dagman_text("JOB a a.sub\nVARS a novalue\n")


class TestOtherStatements:
    def test_comments_and_blank_lines(self):
        f = parse_dagman_text("# a comment\n\nJOB a a.sub\n")
        assert list(f.jobs) == ["a"]

    def test_known_directives_preserved(self):
        text = (
            "CONFIG dagman.config\n"
            "JOB a a.sub\n"
            "RETRY a 3\n"
            "SCRIPT POST a cleanup.sh\n"
            "PRIORITY a 10\n"
            "DOT graph.dot\n"
        )
        f = parse_dagman_text(text)
        assert f.render() == text

    def test_unknown_keyword_rejected(self):
        with pytest.raises(DagmanParseError, match="unknown keyword"):
            parse_dagman_text("FLY me to.the.moon\n")

    def test_error_carries_line_number(self):
        with pytest.raises(DagmanParseError) as exc:
            parse_dagman_text("JOB a a.sub\nBOGUS x\n")
        assert exc.value.line_no == 2


class TestToDag:
    def test_declaration_order_is_id_order(self):
        f = parse_dagman_text(
            "JOB z z.sub\nJOB a a.sub\nPARENT z CHILD a\n"
        )
        dag = f.to_dag()
        assert dag.labels == ("z", "a")
        assert dag.has_arc(0, 1)

    def test_undeclared_dependency_rejected(self):
        f = parse_dagman_text("JOB a a.sub\nPARENT a CHILD ghost\n")
        with pytest.raises(ValueError, match="undeclared"):
            f.to_dag()

    def test_duplicate_dependencies_collapse(self):
        f = parse_dagman_text(
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT a CHILD b\n"
        )
        assert f.to_dag().narcs == 1

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "w.dag"
        path.write_text("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n")
        f = parse_dagman_file(path)
        assert f.to_dag().n == 2


class TestSpliceAndSubdag:
    OUTER = (
        "JOB setup setup.sub\n"
        "JOB teardown teardown.sub\n"
        "SPLICE block inner.dag\n"
        "PARENT setup CHILD block\n"
        "PARENT block CHILD teardown\n"
    )

    def test_splice_statement(self):
        f = parse_dagman_text(self.OUTER)
        assert f.splices["block"].file == "inner.dag"

    def test_splice_with_dir(self):
        f = parse_dagman_text("SPLICE s sub.dag DIR work\n")
        assert f.splices["s"].directory == "work"

    def test_splice_validation(self):
        with pytest.raises(DagmanParseError):
            parse_dagman_text("SPLICE onlyname\n")
        with pytest.raises(DagmanParseError, match="duplicate"):
            parse_dagman_text("SPLICE s a.dag\nSPLICE s b.dag\n")
        with pytest.raises(DagmanParseError, match="unexpected"):
            parse_dagman_text("SPLICE s a.dag FROB nicate\n")

    def test_subdag_external_is_a_job(self):
        f = parse_dagman_text("SUBDAG EXTERNAL child child.dag\n")
        assert f.jobs["child"].submit_file == "child.dag"

    def test_subdag_validation(self):
        with pytest.raises(DagmanParseError, match="EXTERNAL"):
            parse_dagman_text("SUBDAG INTERNAL x y.dag\n")

    def test_to_dag_requires_flat(self):
        f = parse_dagman_text(self.OUTER)
        with pytest.raises(ValueError, match="flatten"):
            f.to_dag()
