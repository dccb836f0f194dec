# Fails when the checked-in wire_message_fuzz / snapshot_fuzz corpora no
# longer match what tools/fuzz_seed_gen writes from the current encoders:
# a change to a wire or snapshot byte format must regenerate the corpus in
# the same commit. json_fuzz is left out (its metrics export carries
# timings); crasher regressions (crash-*) are not generated and are
# skipped.
#
#   cmake -DSEED_GEN=<fuzz_seed_gen> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<temporary dir> -P tests/fuzz_corpus_current.cmake
cmake_minimum_required(VERSION 3.16)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${SEED_GEN}" "${WORK_DIR}"
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fuzz_seed_gen failed (${status})")
endif()
foreach(harness wire_message_fuzz snapshot_fuzz)
  set(fresh "${WORK_DIR}/${harness}")
  set(checked_in "${SOURCE_DIR}/tests/fuzz/corpus/${harness}")
  file(GLOB generated RELATIVE "${fresh}" "${fresh}/*")
  file(GLOB committed RELATIVE "${checked_in}" "${checked_in}/*")
  list(FILTER committed EXCLUDE REGEX "^crash-")
  foreach(name IN LISTS committed)
    if(NOT name IN_LIST generated)
      message(SEND_ERROR "${harness}/${name}: checked in but no longer generated")
    endif()
  endforeach()
  foreach(name IN LISTS generated)
    if(NOT name IN_LIST committed)
      message(SEND_ERROR "${harness}/${name}: generated but not checked in")
      continue()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${fresh}/${name}" "${checked_in}/${name}" RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(SEND_ERROR "${harness}/${name}: differs from a fresh generation "
                         "(run fuzz_seed_gen tests/fuzz/corpus)")
    endif()
  endforeach()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
