# Golden-file regression for crash-at-θ campaigns, run as a ctest via
#   cmake -DCAFT_CLI=<caft_cli> -DCLI=<campaign_cli> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch> -P cmake/campaign_theta_golden.cmake
#
# One pinned instance per topology {clique, ring} is generated with
# caft_cli, then every CAFT/FTSA/FTBAR schedule of it is replayed under a
# crash-window sampler (two processors crash at θ, no θ buckets, so every
# replay goes bit-exact through the replay kernel's commit loop). The
# concatenated text reports must match tests/golden/campaign_theta_report.txt
# byte for byte. The ring leg crosses multi-hop routes, so it covers link
# resources that carry forwarded segments as well as first-hop-only ones.
# Regenerate with tools/regen_campaign_golden.sh after an intentional
# change.
if(NOT CAFT_CLI OR NOT CLI OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "campaign_theta_golden.cmake needs -DCAFT_CLI, -DCLI, -DGOLDEN_DIR and -DWORK_DIR")
endif()

set(THETA_ARGS
    --sampler window --k 2 --theta-lo 0 --theta-hi 4000
    --replays 300 --eps 1 --seed 123 --algos caft,ftsa,ftbar)

file(MAKE_DIRECTORY ${WORK_DIR})

set(REPORT "")
foreach(topology clique ring)
  execute_process(
    COMMAND ${CAFT_CLI} generate --family random --procs 8 --granularity 1.0
            --seed 11 --topology ${topology} --out ${topology}.txt
    OUTPUT_QUIET
    RESULT_VARIABLE generate_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT generate_rc EQUAL 0)
    message(FATAL_ERROR "caft_cli generate --topology ${topology} exited with ${generate_rc}")
  endif()
  execute_process(
    COMMAND ${CLI} --in ${topology}.txt ${THETA_ARGS}
    OUTPUT_VARIABLE topology_out
    RESULT_VARIABLE campaign_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT campaign_rc EQUAL 0)
    message(FATAL_ERROR "campaign_cli on the ${topology} instance exited with ${campaign_rc}")
  endif()
  string(APPEND REPORT "${topology_out}")
endforeach()

file(WRITE ${WORK_DIR}/campaign_theta_report.txt "${REPORT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/campaign_theta_report.txt
          ${GOLDEN_DIR}/campaign_theta_report.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "crash-at-θ campaign report differs from golden campaign_theta_report.txt.\n"
    "If the change is intentional, regenerate with "
    "tools/regen_campaign_golden.sh <build-dir> and commit the result.")
endif()
message(STATUS "crash-at-θ campaign reports match the golden")
