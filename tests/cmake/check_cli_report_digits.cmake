# `spmvcache kernelbench --report` must write each GFLOP/s figure as the
# double it measured, in both formats, not cut to the six significant
# digits a stream writes by default. Run as:
#
#   cmake -DCLI=<spmvcache binary> -DWORK=<work directory>
#         -P check_cli_report_digits.cmake
#
# A measured rate has more than six significant digits at shortest round
# trip unless it happens to be one of the few doubles with that short a
# form.
file(MAKE_DIRECTORY ${WORK})

# The significant digits of the decimal number `number`.
function(significant_digits number out)
  string(REGEX REPLACE "[eE].*$" "" mantissa "${number}")
  string(REGEX REPLACE "[^0-9]" "" digits "${mantissa}")
  string(REGEX REPLACE "^0+" "" digits "${digits}")
  string(LENGTH "${digits}" length)
  set(${out} ${length} PARENT_SCOPE)
endfunction()

foreach(format json csv)
  set(report ${WORK}/kb.${format})
  file(REMOVE ${report})
  execute_process(COMMAND ${CLI} kernelbench --gen stencil2d5:64
                          --threads 1 --iters 5 --variant csr
                          --report ${report}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "spmvcache kernelbench: exit ${code}\n${err}")
  endif()
  file(READ ${report} text)
  if(format STREQUAL "json")
    string(REGEX MATCH "\"gflops\": ([-+.0-9eE]+)" field "${text}")
  else()
    # variant,resolved,gflops,...: the third cell of the one data row.
    string(REGEX MATCH "\ncsr,csr,([-+.0-9eE]+)," field "${text}")
  endif()
  if(field STREQUAL "")
    message(FATAL_ERROR "no gflops in the ${format} report:\n${text}")
  endif()
  significant_digits(${CMAKE_MATCH_1} digits)
  if(digits LESS_EQUAL 6)
    message(FATAL_ERROR
            "${format} report wrote gflops ${CMAKE_MATCH_1}: ${digits} "
            "significant digits")
  endif()
endforeach()
