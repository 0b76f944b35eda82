# Golden-file regression for `caft_cli schedule` through the registry path,
# run as a ctest via
#   cmake -DCLI=<caft_cli> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch> -P cmake/caft_cli_golden.cmake
#
# One pinned instance (random family, m=10, granularity 1.0, seed 11) is
# generated, then scheduled with *every* registered algorithm name at
# eps=2; the concatenated schedule reports must match the committed golden
# byte for byte. A second set of legs pins every schedule bit for bit: per
# algorithm × topology {clique, ring, star} × model {oneport, macro}, the
# SHA-256 of the saved `--out` file (round-trip-exact times) must match
# tests/golden/caft_cli_schedule_digests.txt. The ring legs cross
# multi-hop routes, the star legs two-hop routes through the hub. caft,
# caft-batch, ftsa and ftbar are also pinned at m = 20, eps = 5 on
# {clique, ring} × model (lines tagged `<topology>-m20-eps5`); on the ring
# FTBAR's Minimize-Start-Time emits duplicates over multi-hop routes. The last
# legs require `replay --crash` and `figure` to reject malformed numbers.
# Regenerate with tools/regen_caft_cli_golden.sh after an intentional
# change.
if(NOT CLI OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "caft_cli_golden.cmake needs -DCLI, -DGOLDEN_DIR and -DWORK_DIR")
endif()

set(ALGOS caft caft-batch ftsa ftbar heft)

file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${CLI} generate --family random --procs 10 --granularity 1.0
          --seed 11 --out instance.txt
  OUTPUT_QUIET
  RESULT_VARIABLE generate_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(NOT generate_rc EQUAL 0)
  message(FATAL_ERROR "caft_cli generate exited with ${generate_rc}")
endif()

set(REPORT "")
foreach(algo ${ALGOS})
  execute_process(
    COMMAND ${CLI} schedule --in instance.txt --algo ${algo} --eps 2
    OUTPUT_VARIABLE algo_out
    RESULT_VARIABLE algo_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT algo_rc EQUAL 0)
    message(FATAL_ERROR
      "caft_cli schedule --algo ${algo} exited with ${algo_rc} (a valid "
      "schedule exits 0)")
  endif()
  string(APPEND REPORT "${algo_out}")
endforeach()

# The registry's unknown-algo error is part of the CLI contract too.
execute_process(
  COMMAND ${CLI} schedule --in instance.txt --algo no-such-algo
  ERROR_VARIABLE unknown_err
  OUTPUT_QUIET
  RESULT_VARIABLE unknown_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(unknown_rc EQUAL 0)
  message(FATAL_ERROR "caft_cli schedule accepted an unknown algorithm")
endif()
if(NOT unknown_err MATCHES "unknown algo 'no-such-algo'; known: caft, caft-batch, ftsa, ftbar, heft")
  message(FATAL_ERROR
    "unknown-algo error message does not list the registry names: ${unknown_err}")
endif()

file(WRITE ${WORK_DIR}/caft_cli_schedule.txt "${REPORT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/caft_cli_schedule.txt
          ${GOLDEN_DIR}/caft_cli_schedule.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "caft_cli schedule output differs from the golden "
    "tests/golden/caft_cli_schedule.txt.\n"
    "If the change is intentional, regenerate with "
    "tools/regen_caft_cli_golden.sh <build-dir> and commit the result.")
endif()

set(DIGESTS "")
foreach(topology clique ring star)
  execute_process(
    COMMAND ${CLI} generate --family random --procs 10 --granularity 1.0
            --seed 11 --topology ${topology} --out ${topology}.txt
    OUTPUT_QUIET
    RESULT_VARIABLE generate_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT generate_rc EQUAL 0)
    message(FATAL_ERROR
      "caft_cli generate --topology ${topology} exited with ${generate_rc}")
  endif()
  foreach(model oneport macro)
    foreach(algo ${ALGOS})
      execute_process(
        COMMAND ${CLI} schedule --in ${topology}.txt --algo ${algo} --eps 2
                --model ${model} --out scheduled.txt
        OUTPUT_QUIET
        RESULT_VARIABLE algo_rc
        WORKING_DIRECTORY ${WORK_DIR})
      if(NOT algo_rc EQUAL 0)
        message(FATAL_ERROR
          "caft_cli schedule --algo ${algo} --model ${model} on ${topology} "
          "exited with ${algo_rc}")
      endif()
      file(SHA256 ${WORK_DIR}/scheduled.txt digest)
      string(APPEND DIGESTS "${algo} ${topology} ${model} ${digest}\n")
    endforeach()
  endforeach()
endforeach()

# Figure 3's shape (m = 20, eps = 5): CAFT's channel search skips most
# processors here, and FTSA and FTBAR place eps + 1 = 6 replicas per task,
# so these legs pin every replicating scheduler at the paper's shape.
foreach(topology clique ring)
  execute_process(
    COMMAND ${CLI} generate --family random --procs 20 --granularity 1.0
            --seed 11 --topology ${topology} --out ${topology}-m20.txt
    OUTPUT_QUIET
    RESULT_VARIABLE generate_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT generate_rc EQUAL 0)
    message(FATAL_ERROR
      "caft_cli generate --procs 20 --topology ${topology} exited with "
      "${generate_rc}")
  endif()
  foreach(model oneport macro)
    foreach(algo caft caft-batch ftsa ftbar)
      execute_process(
        COMMAND ${CLI} schedule --in ${topology}-m20.txt --algo ${algo}
                --eps 5 --model ${model} --out scheduled.txt
        OUTPUT_QUIET
        RESULT_VARIABLE algo_rc
        WORKING_DIRECTORY ${WORK_DIR})
      if(NOT algo_rc EQUAL 0)
        message(FATAL_ERROR
          "caft_cli schedule --algo ${algo} --eps 5 --model ${model} on "
          "${topology} (m = 20) exited with ${algo_rc}")
      endif()
      file(SHA256 ${WORK_DIR}/scheduled.txt digest)
      string(APPEND DIGESTS "${algo} ${topology}-m20-eps5 ${model} ${digest}\n")
    endforeach()
  endforeach()
endforeach()

file(WRITE ${WORK_DIR}/caft_cli_schedule_digests.txt "${DIGESTS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/caft_cli_schedule_digests.txt
          ${GOLDEN_DIR}/caft_cli_schedule_digests.txt
  RESULT_VARIABLE digest_rc)
if(NOT digest_rc EQUAL 0)
  message(FATAL_ERROR
    "saved schedules differ from tests/golden/caft_cli_schedule_digests.txt "
    "(this build's digests: ${WORK_DIR}/caft_cli_schedule_digests.txt).\n"
    "If the change is intentional, regenerate with "
    "tools/regen_caft_cli_golden.sh <build-dir> and commit the result.")
endif()

# Malformed numbers fail naming what is wrong: a typo'd processor id must
# not replay another crash set, nor a typo'd figure number another figure.
function(expect_cli_error expected)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    ERROR_VARIABLE cli_err
    OUTPUT_QUIET
    RESULT_VARIABLE cli_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(cli_rc EQUAL 0 OR NOT cli_err MATCHES "${expected}")
    message(FATAL_ERROR "caft_cli ${ARGN} exited with ${cli_rc} and "
      "printed '${cli_err}'; expected a failure matching '${expected}'")
  endif()
endfunction()
expect_cli_error("invalid count for --crash: '1x'"
                 replay --in scheduled.txt --crash 1x)
expect_cli_error("--crash: processor 1 named twice"
                 replay --in scheduled.txt --crash 1,1)
expect_cli_error("invalid count for --crash: 'abc'"
                 replay --in scheduled.txt --crash abc)
expect_cli_error("figure number must be 1-6: '3x'" figure 3x)

message(STATUS "caft_cli schedule golden outputs and digests match for: ${ALGOS}")
