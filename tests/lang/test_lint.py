"""Communication lint: the analyzer's unmatched-rendezvous findings.

SCR001 flags a send that can never rendezvous, SCR002 a receive.
"""

from repro.analysis import analyze_source
from repro.lang.figures import (FIGURE3_STAR_BROADCAST,
                                FIGURE4_PIPELINE_BROADCAST, FIGURE5_DATABASE)


def lint(source):
    return analyze_source(source).by_code("SCR001", "SCR002")


def test_all_shipped_figures_are_clean():
    for source in (FIGURE3_STAR_BROADCAST, FIGURE4_PIPELINE_BROADCAST,
                   FIGURE5_DATABASE):
        assert lint(source) == []


def test_orphan_send_flagged():
    warnings = lint("""
SCRIPT s;
  ROLE a (x : item);
  BEGIN
    SEND x TO b
  END a;
  ROLE b ();
  BEGIN SKIP END b;
END s;
""")
    assert len(warnings) == 1
    assert warnings[0].code == "SCR001"
    assert warnings[0].role == "a" and warnings[0].partner == "b"


def test_orphan_receive_flagged():
    warnings = lint("""
SCRIPT s;
  ROLE a ();
  VAR v : item;
  BEGIN
    RECEIVE v FROM b
  END a;
  ROLE b ();
  BEGIN SKIP END b;
END s;
""")
    assert len(warnings) == 1
    assert warnings[0].code == "SCR002"
    assert warnings[0].role == "a" and warnings[0].partner == "b"


def test_matched_pair_not_flagged():
    warnings = lint("""
SCRIPT s;
  ROLE a (x : item);
  BEGIN SEND x TO b END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
END s;
""")
    assert warnings == []


def test_comm_inside_guards_and_branches_is_seen():
    warnings = lint("""
SCRIPT s;
  ROLE a (x : item);
  VAR n : integer;
  BEGIN
    IF n = 0 THEN
      SEND x TO b
    ELSE
      BEGIN
        DO n > 0 -> n := n - 1 OD;
        SEND x TO c
      END
  END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
  ROLE c ();
  BEGIN SKIP END c;
END s;
""")
    # Only the a -> c send is unmatched.
    assert len(warnings) == 1
    assert warnings[0].code == "SCR001" and warnings[0].partner == "c"


def test_comm_in_guard_position_is_seen():
    warnings = lint("""
SCRIPT s;
  ROLE a (x : item);
  VAR done : boolean;
  BEGIN
    DO
      NOT done; SEND x TO b -> done := true
    OD
  END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
END s;
""")
    assert warnings == []


def test_family_self_communication_allowed():
    """The pipeline pattern: a family talking to itself is matched."""
    warnings = lint("""
SCRIPT s;
  ROLE fam [i:1..3] (VAR d : item);
  BEGIN
    RECEIVE d FROM fam[i - 1];
    SEND d TO fam[i + 1]
  END fam;
END s;
""")
    assert warnings == []


def test_communication_edges_structure():
    from repro.analysis import collect_sites
    from repro.lang import analyze, parse_script
    program = parse_script("""
SCRIPT s;
  ROLE a (x : item);
  BEGIN SEND x TO b END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
END s;
""")
    sites = collect_sites(program, analyze(program))
    # Both ends of the one a -> b communication, oriented by owner.
    assert {(site.owner[0], site.kind, site.partner_role)
            for site in sites} == {("a", "send", "b"), ("b", "recv", "a")}


def test_warnings_report_line_numbers():
    warnings = lint("""
SCRIPT s;
  ROLE a (x : item);
  BEGIN
    SEND x TO b
  END a;
  ROLE b ();
  BEGIN SKIP END b;
END s;
""")
    assert warnings[0].line == 5
