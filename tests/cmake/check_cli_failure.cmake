# Failure check for the spmvcache CLI. Run as:
#
#   cmake -DCLI=<spmvcache binary> "-DARGS=<subcommand and flags>"
#         -DWANT=<exit code> "-DMATCH=<regex>" -P check_cli_failure.cmake
#
# ARGS is one space-separated string. The run must exit WANT and print
# something matching MATCH on stderr: a refused input or an internal
# error exits 1, so only a usage error reads as 2.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL WANT)
  message(FATAL_ERROR "spmvcache ${ARGS}: exit ${code}, want ${WANT}\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "spmvcache ${ARGS}: stderr does not match '${MATCH}'\n${err}")
endif()
