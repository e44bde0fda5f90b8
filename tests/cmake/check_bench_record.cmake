# Schema check for the record a bench harness writes (bench_common.hpp
# BenchRecord). Run as:
#
#   cmake [-DBENCH=<harness> "-DARGS=<flags>"] -DOUT=<record path>
#         -P check_bench_record.cmake
#
# With BENCH, runs the harness with ARGS and --out OUT first, and it must
# exit 0. The record must then hold the common keys (bench, commit,
# host_cores, build_type, smoke), a flat params object and a non-empty
# metrics list in which every metric has a name, a unit, a finite value
# and reps >= 1.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(DEFINED BENCH)
  get_filename_component(dir ${OUT} DIRECTORY)
  file(MAKE_DIRECTORY ${dir})
  file(REMOVE ${OUT})
  separate_arguments(args UNIX_COMMAND "${ARGS}")
  execute_process(COMMAND ${BENCH} ${args} --out ${OUT}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${code}\n${err}")
  endif()
endif()
file(READ ${OUT} text)

# Fails unless `path...` in the record has one of the JSON `types`.
function(expect_type types)
  string(JSON type ERROR_VARIABLE err TYPE "${text}" ${ARGN})
  if(err OR NOT type IN_LIST types)
    message(FATAL_ERROR "${OUT}: ${ARGN} is ${type}, want ${types} ${err}")
  endif()
endfunction()

expect_type(STRING bench)
expect_type(STRING commit)
expect_type(NUMBER host_cores)
expect_type(STRING build_type)
expect_type(BOOLEAN smoke)
expect_type(OBJECT params)
string(JSON count LENGTH "${text}" params)
if(count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${text}" params ${i})
    expect_type("NUMBER;STRING" params ${name})
  endforeach()
endif()

expect_type(ARRAY metrics)
string(JSON count LENGTH "${text}" metrics)
if(count EQUAL 0)
  message(FATAL_ERROR "${OUT}: no metrics")
endif()
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  foreach(key name unit)
    expect_type(STRING metrics ${i} ${key})
    string(JSON value GET "${text}" metrics ${i} ${key})
    if(value STREQUAL "")
      message(FATAL_ERROR "${OUT}: metric ${i} has an empty ${key}")
    endif()
  endforeach()
  # JSON has no NaN or infinity: the writer renders them as null.
  expect_type(NUMBER metrics ${i} value)
  expect_type(NUMBER metrics ${i} reps)
  string(JSON reps GET "${text}" metrics ${i} reps)
  if(NOT reps MATCHES "^[0-9]+$" OR reps LESS 1)
    message(FATAL_ERROR "${OUT}: metric ${i} has reps ${reps}, want >= 1")
  endif()
endforeach()
