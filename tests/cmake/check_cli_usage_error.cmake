# Usage-error check for the spmvcache CLI. Run as:
#
#   cmake -DCLI=<spmvcache binary> "-DARGS=<subcommand and flags>"
#         -P check_cli_usage_error.cmake
#
# ARGS is one space-separated string. The run must exit 2 (usage error)
# and name a ValidationError on stderr: an out-of-range flag is the
# caller's mistake, never an internal error or a per-matrix failure.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "spmvcache ${ARGS}: exit ${code}, want 2\n${err}")
endif()
if(NOT err MATCHES "ValidationError")
  message(FATAL_ERROR "spmvcache ${ARGS}: no ValidationError on stderr\n${err}")
endif()
