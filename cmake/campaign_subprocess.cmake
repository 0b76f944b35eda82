# Subprocess-backend identity gate, run as a ctest via
#   cmake -DCLI=<campaign_cli> -DWORK_DIR=<scratch>
#         -P cmake/campaign_subprocess.cmake
#
# The same campaign runs once in-process and once through the subprocess
# backend at 1, 2 and 4 workers; all four JSON summaries must match byte
# for byte (the scale-out determinism contract of api/session.hpp). Two
# samplers are covered: the paper's uniform-k (discrete masks) and a crash
# window (continuous θ, a non-trivial latency-quantile stream).
# With -DOBS=ON the subprocess runs additionally carry
# --trace-out/--metrics-out/--progress; the JSON summaries must STILL be
# byte-identical to the uninstrumented single-process run (observability
# inertness across the process boundary).
#
# A no-temp-dir leg runs one subprocess campaign with TMPDIR naming a
# directory that does not exist: the work order carries the instance
# bytes, so neither the coordinator nor a worker needs a temp dir.
#
# An early-stop leg gates --target-ci-width: it stops the fold at a point
# fixed by the spec alone, so a stopped subprocess campaign must match the
# stopped single-process one byte for byte at 2 and 4 workers, even though
# its automatic wire blocks (500 and 250 replays) do not line up with the
# 1024-replay stop point.
#
# A last leg checks that the retired --block-replays flag fails loudly
# and names itself instead of being silently ignored.
if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "campaign_subprocess.cmake needs -DCLI and -DWORK_DIR")
endif()

set(OBS_ARGS "")
if(OBS)
  set(OBS_ARGS --trace-out trace.json --metrics-out metrics.json --progress)
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

# Runs campaign_cli with the remaining arguments, writing <name>_campaign.json.
# A non-empty `launcher` list prefixes the command (e.g. `cmake -E env`).
set(launcher "")
function(run_campaign name)
  execute_process(
    COMMAND ${launcher} ${CLI} ${ARGN} --json ${name}
    OUTPUT_QUIET
    RESULT_VARIABLE rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign_cli ${ARGN} exited with ${rc}")
  endif()
endfunction()

# Runs the subprocess backend and fails unless its summary matches
# <reference>_campaign.json byte for byte.
function(expect_identical reference name)
  run_campaign(${name} ${ARGN} ${OBS_ARGS})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${reference}_campaign.json
            ${WORK_DIR}/${name}_campaign.json
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "campaign_cli ${ARGN} differs from the single-process summary — "
      "the scale-out determinism contract is broken")
  endif()
endfunction()

foreach(sampler_args
    "--sampler;uniform"
    "--sampler;window;--k;2;--theta-lo;0;--theta-hi;800")
  set(common_args
      --replays 300 --procs 10 --eps 1 --tasks 40
      --instance-seed 11 --seed 99 --algos caft,ftsa ${sampler_args})
  run_campaign(single ${common_args})
  foreach(workers 1 2 4)
    expect_identical(single sub${workers} ${common_args}
                     --exec subprocess --workers ${workers})
  endforeach()
endforeach()

# No-temp-dir leg: the last sampler's (the crash window's) campaign at 2
# workers, with TMPDIR pointing nowhere.
set(no_tmp ${WORK_DIR}/no-such-dir)
file(REMOVE_RECURSE ${no_tmp})
set(launcher ${CMAKE_COMMAND} -E env TMPDIR=${no_tmp})
expect_identical(single notmp2 ${common_args} --exec subprocess --workers 2)
set(launcher "")

# Early-stop leg: uniform-k beyond ε (mixed outcomes), stopped long before
# the 4000-replay budget.
set(stop_args
    --replays 4000 --target-ci-width 0.2 --procs 10 --eps 1 --tasks 40
    --instance-seed 11 --seed 99 --algos caft,ftsa --sampler uniform --k 2)
run_campaign(stop_single ${stop_args})
file(READ ${WORK_DIR}/stop_single_campaign.json stop_content)
if(stop_content MATCHES "\"replays\": 4000")
  message(FATAL_ERROR "--target-ci-width 0.2 did not stop the campaign early")
endif()
foreach(workers 2 4)
  expect_identical(stop_single stop${workers} ${stop_args}
                   --exec subprocess --workers ${workers})
endforeach()

execute_process(
  COMMAND ${CLI} ${common_args} --exec subprocess --block-replays 25
  OUTPUT_QUIET
  ERROR_VARIABLE retired_err
  RESULT_VARIABLE retired_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(retired_rc EQUAL 0 OR NOT retired_err MATCHES "--block-replays")
  message(FATAL_ERROR
    "campaign_cli accepted the retired --block-replays flag (exit "
    "${retired_rc}): ${retired_err}")
endif()

if(OBS)
  file(READ ${WORK_DIR}/trace.json trace_content)
  if(NOT trace_content MATCHES "worker-slot-")
    message(FATAL_ERROR "--trace-out carries no per-worker subprocess spans")
  endif()
  file(READ ${WORK_DIR}/metrics.json metrics_content)
  if(NOT metrics_content MATCHES "caft-metrics/v1")
    message(FATAL_ERROR "--metrics-out produced no caft-metrics/v1 document")
  endif()
  message(STATUS
    "subprocess campaign summaries identical at 1, 2 and 4 workers "
    "(incl. no temp dir, early stop) with observability on")
else()
  message(STATUS
    "subprocess campaign summaries identical at 1, 2 and 4 workers "
    "(incl. no temp dir, early stop)")
endif()
