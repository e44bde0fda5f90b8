# `spmvcache predict --json` must write each prediction as the double the
# model computed: the same text the serve daemon's payload gives for the
# same request, since serve renders every number at shortest round trip.
# Run as:
#
#   cmake -DCLI=<spmvcache binary> -DWORK=<work directory>
#         -P check_cli_predict_json.cmake
#
# At the SHARDS rate 0.3 every count is scaled by 1/0.3, so the
# predictions carry more than the six significant digits a stream writes
# by default; the stencil spills the smallest sector, so they are not 0.
file(MAKE_DIRECTORY ${WORK})
set(json ${WORK}/p.json)
set(request ${WORK}/request.jsonl)
file(WRITE ${request}
     "{\"id\":\"p\",\"op\":\"predict\",\"gen\":\"stencil2d5:300\","
     "\"threads\":4,\"approx\":0.3}\n")

execute_process(COMMAND ${CLI} predict --gen stencil2d5:300 --threads 4
                        --approx=0.3 --json ${json}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "spmvcache predict: exit ${code}\n${err}")
endif()
execute_process(COMMAND ${CLI} serve
                INPUT_FILE ${request}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE served
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "spmvcache serve: exit ${code}\n${err}")
endif()
file(READ ${json} written)

# The values of `key` in `text`, in order.
function(values_of key text out)
  string(REGEX MATCHALL "\"${key}\": ?[-+.0-9eE]+" fields "${text}")
  string(REGEX REPLACE "\"${key}\": ?" "" values "${fields}")
  set(${out} "${values}" PARENT_SCOPE)
endfunction()

foreach(key l2_misses l2_x_misses x_traffic_fraction)
  values_of(${key} "${written}" got)
  values_of(${key} "${served}" want)
  if(want STREQUAL "")
    message(FATAL_ERROR "serve gave no ${key}:\n${served}")
  endif()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
            "predict --json wrote ${key} ${got}; serve gave ${want}")
  endif()
endforeach()
values_of(l2_misses "${written}" misses)
if(misses MATCHES "^0(;0)*$")
  message(FATAL_ERROR "every prediction is 0, so no digit is checked")
endif()
