# Runs a traced, heartbeating sweep and requires trace_summary to find
# both files sound: the span structure (--validate), the heartbeat schema
# and a complete final beat (--expect-complete).
#
#   cmake -DSWEEP=<parallel_sweep> -DSUMMARY=<trace_summary>
#         -DSCENARIO=<name> -DWORK_DIR=<dir> -P run_trace_check.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/trace.json")
set(heartbeat "${WORK_DIR}/heartbeat.jsonl")
execute_process(COMMAND "${SWEEP}" --scenario=${SCENARIO} --threads=2
                        --trace=${trace} --heartbeat=${heartbeat},1
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SWEEP} exited with ${rc}:\n${out}${err}")
endif()
execute_process(COMMAND "${SUMMARY}" ${trace} --validate
                        --heartbeat ${heartbeat} --expect-complete
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SUMMARY} exited with ${rc}:\n${err}")
endif()
