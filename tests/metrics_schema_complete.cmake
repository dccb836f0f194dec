# Fails unless a traced `mendel query` prints its span timeline and its
# --metrics-json export passes tools/check_metrics_schema both ways: every
# required metric is exported and every exported metric is declared in
# tools/metrics_schema.json. Registering an instrument without declaring it
# (or dropping a declared one) breaks this test.
#
#   cmake -DMENDEL=<mendel> -DCHECKER=<check_metrics_schema>
#         -DSOURCE_DIR=<repo root> -DWORK_DIR=<temporary dir>
#         -P tests/metrics_schema_complete.cmake
cmake_minimum_required(VERSION 3.16)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step name)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name} failed (${status}):\n${out}${err}")
  endif()
  set(step_output "${out}" PARENT_SCOPE)
endfunction()

# A 3x2 cluster over 36 sequences; three queries, the first one traced.
run_step(generate "${MENDEL}" generate --out db.fasta --families 6
  --members 4 --background 12 --min-len 200 --max-len 400 --seed 2024
  --queries q.fasta --query-count 3 --query-length 120)
run_step(index "${MENDEL}" index --db db.fasta --out index.mnd --groups 3
  --nodes-per-group 2 --sample 256 --cutoff-depth 4)
run_step(query "${MENDEL}" query --index index.mnd --queries q.fasta
  --trace query0 --metrics-json metrics.json)
if(NOT step_output MATCHES
   "trace for query 'query0':\nquery [0-9]+: [1-9][0-9]* spans\n")
  message(FATAL_ERROR "query printed no span timeline:\n${step_output}")
endif()
set(query_output "${step_output}")
run_step(check_metrics_schema "${CHECKER}" metrics.json
  "${SOURCE_DIR}/tools/metrics_schema.json")
message(STATUS "${query_output}${step_output}")
file(REMOVE_RECURSE "${WORK_DIR}")
