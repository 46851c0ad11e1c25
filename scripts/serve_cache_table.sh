#!/usr/bin/env bash
# Engine-cache warm/cold table (EXPERIMENTS.md "Engine cache: warm vs.
# cold"), measured through the release `lalrcex serve --workers 2`:
#
#   scripts/serve_cache_table.sh
#
# For each grammar, a fresh server gets two identical `analyze` requests,
# paced (the warm one is sent after the cold one is answered); times are
# the response envelopes' `elapsed_ms`, the median of 5 such servers. A
# last fresh server then gets the two requests unpaced (both sent before
# either is answered), followed by a `stats` request: the table shows the
# pair's two `cache` answers and the server's `cache.misses`, which counts
# engine builds. Prints a Markdown table, preceded by the host it ran on.
# Needs `jq`.
set -euo pipefail
cd "$(dirname "$0")/.."

grammars=(figure1 eqn sql pascal c89 java)
reps=5

cargo build --release --offline --quiet -p lalrcex-cli
bin=target/release/lalrcex

request() { # id, JSON-encoded grammar text
  printf '{"protocol":1,"op":"analyze","id":"%s","grammar":%s,"file":"g.y"}\n' "$1" "$2"
}

ok() { # response line
  if [[ $(jq -r .ok <<<"$1") != true ]]; then
    echo "serve_cache_table: $name: request failed: $1" >&2
    exit 1
  fi
}

cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//' || true)
echo "host: ${cpu:-unknown CPU}, $(nproc) CPUs, $(uname -sm); release build, serve --workers 2"
echo
echo "| grammar | states | conflicts | cold (ms) | warm (ms) | speedup | unpaced pair | builds |"
echo "|---|---:|---:|---:|---:|---:|---|---:|"
for name in "${grammars[@]}"; do
  text=$(jq -Rs . < "crates/corpus/grammars/$name.y")

  colds=() warms=()
  for _ in $(seq "$reps"); do
    coproc SERVE { "$bin" serve --workers 2; }
    request cold "$text" >&"${SERVE[1]}"
    IFS= read -r cold <&"${SERVE[0]}"
    request warm "$text" >&"${SERVE[1]}"
    IFS= read -r warm <&"${SERVE[0]}"
    echo '{"op":"shutdown","id":"z"}' >&"${SERVE[1]}"
    wait "$SERVE_PID" || true
    ok "$cold"
    ok "$warm"
    colds+=("$(jq .elapsed_ms <<<"$cold")")
    warms+=("$(jq .elapsed_ms <<<"$warm")")
  done

  coproc SERVE { "$bin" serve --workers 2; }
  { request a "$text"; request b "$text"; } >&"${SERVE[1]}"
  IFS= read -r first <&"${SERVE[0]}"
  IFS= read -r second <&"${SERVE[0]}"
  echo '{"op":"stats","id":"s"}' >&"${SERVE[1]}"
  IFS= read -r stats <&"${SERVE[0]}"
  echo '{"op":"shutdown","id":"z"}' >&"${SERVE[1]}"
  wait "$SERVE_PID" || true

  ok "$first"
  ok "$second"
  jq -rn --arg name "$name.y" --argjson report "$(jq .report <<<"$cold")" \
    --argjson colds "[$(IFS=,; echo "${colds[*]}")]" \
    --argjson warms "[$(IFS=,; echo "${warms[*]}")]" \
    --argjson first "$first" --argjson second "$second" --argjson stats "$stats" '
    def median: sort | .[length / 2 | floor];
    def r(n): . * n | round / n;
    ($colds | median) as $c | ($warms | median) as $w
    | "| \($name) | \($report.grammar.states) | \($report.grammar.conflicts) "
    + "| \($c | r(100)) | \($w | r(100)) | \($c / $w | r(10))× "
    + "| \([$first.cache, $second.cache] | sort | join(" + ")) "
    + "| \($stats.cache.misses) |"'
done
