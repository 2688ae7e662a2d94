# Runs one example or bench binary as a smoke test: it must exit 0 and,
# when EXPECTED names a file, print exactly that file's contents on stdout.
# ARGS (one string, split like a shell line) is passed to the binary; MATCH
# is a regex its stdout must contain; CSV makes the binary write --csv=CSV,
# which must equal EXPECTED_CSV byte for byte.
#
#   cmake -DEXE=<binary> [-DARGS=<flags>] [-DEXPECTED=<stdout file>]
#         [-DMATCH=<regex>] [-DCSV=<path> -DEXPECTED_CSV=<file>]
#         -P run_example.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED CSV)
  file(REMOVE "${CSV}")
  list(APPEND args "--csv=${CSV}")
endif()
execute_process(COMMAND "${EXE}" ${args} OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
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
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${EXE} stdout lacks /${MATCH}/:\n${out}")
endif()
if(DEFINED CSV)
  file(READ "${CSV}" got)
  file(READ "${EXPECTED_CSV}" want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${CSV} differs from ${EXPECTED_CSV}; diff the two")
  endif()
endif()
