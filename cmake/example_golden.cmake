# Golden-file regression for an example's stdout, run as a ctest via
#   cmake -DEXAMPLE=<example binary> -DGOLDEN=<tests/golden/file>
#         -DWORK_DIR=<scratch> -P cmake/example_golden.cmake
#
# The example must exit 0 and print exactly the committed golden, byte for
# byte. Regenerate with tools/regen_campaign_golden.sh after an intentional
# change.
if(NOT EXAMPLE OR NOT GOLDEN OR NOT WORK_DIR)
  message(FATAL_ERROR
    "example_golden.cmake needs -DEXAMPLE, -DGOLDEN and -DWORK_DIR")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(golden_name ${GOLDEN} NAME)
execute_process(
  COMMAND ${EXAMPLE}
  OUTPUT_FILE ${WORK_DIR}/${golden_name}
  RESULT_VARIABLE example_rc
  WORKING_DIRECTORY ${WORK_DIR})
if(NOT example_rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${example_rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${golden_name}
          ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "${EXAMPLE} output differs from golden ${golden_name}.\n"
    "If the change is intentional, regenerate with "
    "tools/regen_campaign_golden.sh <build-dir> and commit the result.")
endif()
message(STATUS "${EXAMPLE} output matches the golden")
