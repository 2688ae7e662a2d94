# Runs one example binary as a smoke test: it must exit 0 and, when
# EXPECTED names a file, print exactly that file's contents on stdout.
#
#   cmake -DEXE=<binary> [-DEXPECTED=<stdout file>] -P run_example.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}; stdout:\n${out}")
endif()
if(DEFINED EXPECTED)
  file(READ "${EXPECTED}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR
            "${EXE} stdout differs from ${EXPECTED}:\n--- got\n${out}"
            "--- want\n${want}")
  endif()
endif()
