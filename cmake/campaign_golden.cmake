# Golden-file regression for campaign_cli, run as a ctest via
#   cmake -DCLI=<campaign_cli> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch> -P cmake/campaign_golden.cmake
#
# The CLI is invoked twice with a pinned instance/campaign seed: once for
# the text report (stdout contains no filesystem paths), once for the CSV +
# JSON artifacts. All three outputs must match the committed goldens byte
# for byte. Regenerate with tools/regen_campaign_golden.sh after an
# *intentional* statistics or formatting change.
# With -DOBS=ON every invocation additionally writes a Chrome trace and a
# caft-metrics/v1 snapshot — the reports must STILL match the goldens byte
# for byte (the observability inertness contract), and the artifacts must
# be produced and well-formed enough to carry their schema markers.
if(NOT CLI OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "campaign_golden.cmake needs -DCLI, -DGOLDEN_DIR and -DWORK_DIR")
endif()

set(GOLDEN_ARGS
    --replays 200 --procs 8 --eps 1 --tasks 30
    --instance-seed 7 --seed 123 --algos caft,ftsa)

set(OBS_ARGS "")
if(OBS)
  set(OBS_ARGS --trace-out trace.json --metrics-out metrics.json)
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${CLI} ${GOLDEN_ARGS} ${OBS_ARGS}
  OUTPUT_FILE ${WORK_DIR}/campaign_report.txt
  RESULT_VARIABLE text_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(NOT text_rc EQUAL 0)
  message(FATAL_ERROR "campaign_cli (text run) exited with ${text_rc}")
endif()

# Execution-policy cross-checks: a single-threaded run (one worker, the
# record cache filled in a different interleaving) and the bit-exactness
# escape hatch (--exact, a no-op without --theta-buckets) must both
# reproduce the *same* golden text byte for byte (see campaign/campaign.hpp).
foreach(variant "threads1" "exact")
  if(variant STREQUAL "threads1")
    set(variant_args --threads 1)
  else()
    set(variant_args --exact)
  endif()
  execute_process(
    COMMAND ${CLI} ${GOLDEN_ARGS} ${variant_args} ${OBS_ARGS}
    OUTPUT_FILE ${WORK_DIR}/campaign_report_${variant}.txt
    RESULT_VARIABLE variant_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT variant_rc EQUAL 0)
    message(FATAL_ERROR
      "campaign_cli (${variant_args} run) exited with ${variant_rc}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/campaign_report_${variant}.txt
            ${GOLDEN_DIR}/campaign_report.txt
    RESULT_VARIABLE variant_diff_rc)
  if(NOT variant_diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${variant_args} report differs from the golden text — the execution "
      "policy leaked into the summary")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} ${GOLDEN_ARGS} --csv out --json out ${OBS_ARGS}
  OUTPUT_QUIET
  RESULT_VARIABLE file_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(NOT file_rc EQUAL 0)
  message(FATAL_ERROR "campaign_cli (csv/json run) exited with ${file_rc}")
endif()

foreach(pair
    "campaign_report.txt;campaign_report.txt"
    "out_campaign.csv;campaign_report.csv"
    "out_campaign.json;campaign_report.json")
  list(GET pair 0 produced)
  list(GET pair 1 golden)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${produced} ${GOLDEN_DIR}/${golden}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${produced} differs from golden ${golden}.\n"
      "If the change is intentional, regenerate with "
      "tools/regen_campaign_golden.sh <build-dir> and commit the result.")
  endif()
endforeach()

if(OBS)
  file(READ ${WORK_DIR}/trace.json trace_content)
  if(NOT trace_content MATCHES "traceEvents")
    message(FATAL_ERROR "--trace-out produced no Chrome trace document")
  endif()
  file(READ ${WORK_DIR}/metrics.json metrics_content)
  if(NOT metrics_content MATCHES "caft-metrics/v1")
    message(FATAL_ERROR "--metrics-out produced no caft-metrics/v1 document")
  endif()
  if(NOT metrics_content MATCHES "campaign.replays")
    message(FATAL_ERROR "metrics snapshot carries no campaign counters")
  endif()
  message(STATUS "campaign_cli golden outputs match with observability on")
else()
  message(STATUS "campaign_cli golden outputs match")
endif()
