# hardbound_run's flags that no other test sets, one case each on the
# small cli_*.c programs beside this script, the four recovery policies
# and an expired deadline.  Prints each case's stdout (or the pinned
# lines of the file it writes; a policy case's stderr too) and its exit
# status; test/dune diffs the result against cli_flags.expected.
#
#   sh cli_flags.sh path/to/hardbound_run.exe
run=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "use-after-free:"
"$run" cli_use_after_free.c
echo "exit $?"

echo "use-after-free --temporal:"
"$run" cli_use_after_free.c --temporal
echo "exit $?"

echo "spin --fuel 10000:"
"$run" cli_spin.c --fuel 10000
echo "exit $?"

echo "out-of-bounds read --trace-events 4:"
"$run" cli_oob_read.c --trace-events 4
echo "exit $?"

echo "out-of-bounds read --trace FILE --trace-retires:"
"$run" cli_oob_read.c --trace "$tmp/t.jsonl" --trace-retires > /dev/null
echo "exit $?"
echo "retire events: $(grep -c '"event":"retire"' "$tmp/t.jsonl")"

echo "campaign 2 --campaign-checkpoints 4:"
"$run" cli_clean.c --campaign 2 --campaign-checkpoints 4 \
  --campaign-json "$tmp/c.json" > /dev/null
echo "exit $?"
grep '"checkpoints"\|"checkpoint_interval"' "$tmp/c.json"

echo "campaign 2 --campaign-checkpoints=-1:"
"$run" cli_clean.c --campaign 2 --campaign-checkpoints=-1 2>&1 > /dev/null
echo "exit $?"

# recovery policies on a loop that reads three words past its object
echo "out-of-bounds loop, default abort:"
"$run" cli_oob_loop.c 2>&1
echo "exit $?"

for policy in report null-guard rollback; do
  echo "out-of-bounds loop --on-violation $policy:"
  "$run" cli_oob_loop.c --on-violation $policy 2>&1
  echo "exit $?"
done

echo "out-of-bounds loop --on-violation report --violation-budget 2:"
"$run" cli_oob_loop.c --on-violation report --violation-budget 2 2>&1
echo "exit $?"

# a wall-clock deadline that has already passed: the supervisor's first
# poll, at instruction 0, and the campaign's check before its first run
echo "clean --deadline 0:"
"$run" cli_clean.c --deadline 0
echo "exit $?"

echo "campaign 5 --deadline 0:"
"$run" cli_clean.c --campaign 5 --deadline 0 --campaign-json "$tmp/d.json" \
  > "$tmp/d.txt"
echo "exit $?"
grep 'deadline expired' "$tmp/d.txt"
grep '"deadline_expired"\|"completed"' "$tmp/d.json"
