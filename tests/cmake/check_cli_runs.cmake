# Success check for the spmvcache CLI on a matrix file. Run as:
#
#   cmake -DCLI=<spmvcache binary> -DWORK=<work directory>
#         "-DARGS=<subcommand and flags>" -P check_cli_runs.cmake
#
# Writes the 12 x 12 five-point stencil to WORK/m.mtx, puts its path where
# ARGS says MATRIX, and requires exit 0: a switch before the path must
# leave the path to the subcommand.
file(MAKE_DIRECTORY ${WORK})
set(matrix ${WORK}/m.mtx)
execute_process(COMMAND ${CLI} convert --gen stencil2d5:12 ${matrix}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "spmvcache convert: exit ${code}\n${err}")
endif()
string(REPLACE "MATRIX" "${matrix}" line "${ARGS}")
separate_arguments(args UNIX_COMMAND "${line}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "spmvcache ${line}: exit ${code}, want 0\n${err}")
endif()
