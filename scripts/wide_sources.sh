# Sourced by the smoke scripts (run from the repository root). The
# shipped demonstrators — condhash, specdisjoint, specconflict — have
# regions of a few hundred cost units, under what a region costs to
# enter, so both runtimes decline them (regions_declined). A leg that
# needs a guard evaluated, a commit or an abort runs the same program
# widened past the cutoff: the shipped text, taken from its Go constant
# with one awk, and one sed.

# shipped CONST: the program text of a source constant of internal/apps/src.
shipped() { awk -v c="$1" '$0 == "const " c " = `"{f=1;next} /^`/{f=0} f' internal/apps/src/*.go; }

# wide_condhash MODE ROUNDS: the table at 4096 buckets with the shipped driver.
wide_condhash() {
  shipped CondHashBase | sed 's/^const int NBUCKET = 8;$/const int NBUCKET = 4096;/'
  printf 'void main() {\n  int r;\n  H.setup(%d);\n  for (r = 0; r < %d; r += 1) {\n    H.ingest(r);\n  }\n  H.report();\n}\n' "$1" "$2"
}

# wide_disjoint: 4096 cells; the one region still commits.
wide_disjoint() { shipped SpecDisjoint | sed 's/^const int N = 16;$/const int N = 4096;/'; }

# wide_conflict: 4096 more conflicting mark calls; the one region still
# aborts and the run still ends in last = 2, total = 3.
wide_conflict() {
  shipped SpecConflict |
    sed 's/^void driver::run() {$/&\n  int i;\n  for (i = 0; i < 4096; i += 1) {\n    c->mark(0);\n  }/'
}

# loop_fixture NAME N: the parallel-loop legality fixture NAME over N
# cells — internal/apps/src/loops/skeleton.mc with NAME.mc as the
# statements of driver::run (what src.LoopProgram assembles in Go).
loop_fixture() {
  sed -e "s/^const int N = 64;\$/const int N = $2;/" \
    -e "/^  RUN\$/{r internal/apps/src/loops/$1.mc" -e 'd}' internal/apps/src/loops/skeleton.mc
}

# json_source: stdin as the inside of a JSON string. The sources above
# have no character JSON escapes but the line ends.
json_source() { awk '{printf "%s\\n", $0}'; }
