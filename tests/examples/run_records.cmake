# Pins a sweep's replicate records byte for byte: runs parallel_sweep on
# SCENARIO as a one-worker fleet, writes the canonical records with
# --fleet-merge, and requires exactly EXPECTED's bytes.
#
#   cmake -DEXE=<parallel_sweep> -DSCENARIO=<name> -DTHREADS=<n>
#         -DEXPECTED=<records file> -DWORK_DIR=<dir> -P run_records.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(fleet "${WORK_DIR}/fleet")
set(canonical "${WORK_DIR}/canonical.jsonl")
foreach(step run merge)
  if(step STREQUAL "run")
    set(args --fleet-dir=${fleet} --fleet-batches=4 --threads=${THREADS})
  else()
    set(args --fleet-dir=${fleet} --fleet-merge
             --json-replicates=${canonical})
  endif()
  execute_process(COMMAND "${EXE}" --scenario=${SCENARIO} ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} ${step} exited with ${rc}:\n${out}${err}")
  endif()
endforeach()
file(READ "${canonical}" got)
file(READ "${EXPECTED}" want)
if(NOT got STREQUAL want)
  file(SHA256 "${canonical}" got_sha)
  file(SHA256 "${EXPECTED}" want_sha)
  message(FATAL_ERROR
          "records of ${SCENARIO} differ from ${EXPECTED}:\n"
          "  got  ${canonical} sha256 ${got_sha}\n"
          "  want sha256 ${want_sha}\n"
          "diff the two files to find the first record that moved")
endif()
