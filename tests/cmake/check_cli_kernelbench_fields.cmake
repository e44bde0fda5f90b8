# `spmvcache kernelbench --report` shows why auto chose: each row gives the
# row partition's imbalance and, where the engine built or probed the
# SELL layout, its padding. Run as:
#
#   cmake -DCLI=<spmvcache binary> -DWORK=<work directory>
#         -P check_cli_kernelbench_fields.cmake
file(MAKE_DIRECTORY ${WORK})
foreach(format json csv)
  set(report ${WORK}/kb.${format})
  file(REMOVE ${report})
  execute_process(COMMAND ${CLI} kernelbench --gen randomcv:2000
                          --threads 1 --iters 2 --variant sell
                          --report ${report}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "spmvcache kernelbench: exit ${code}\n${err}")
  endif()
  file(READ ${report} text)
  if(format STREQUAL "json")
    # The sell row built the layout: a padding of at least 1.
    set(want "\"variant\": \"sell\"[^}]*\"sell_padding\": 1[.0-9eE+-]*, \"imbalance\": 1")
  else()
    set(want "sell_padding,imbalance\n(.*\n)?sell,sell,[^\n]*,1[.0-9eE+-]*,1[.0-9eE+-]*\n")
  endif()
  if(NOT text MATCHES "${want}")
    message(FATAL_ERROR "the ${format} report gives no sell padding and "
                        "imbalance for the sell row:\n${text}")
  endif()
endforeach()
