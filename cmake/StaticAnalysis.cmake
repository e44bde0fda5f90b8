# Static-analysis entry points. Only the `lint` target (our own spmv_lint
# binary) is always available; clang-tidy, cppcheck and clang-format are
# optional host tools, so their targets appear only when find_program
# succeeds — the CI lint job installs all three.

set(SPMV_LINT_PATHS
    ${CMAKE_SOURCE_DIR}/src
    ${CMAKE_SOURCE_DIR}/tools
    ${CMAKE_SOURCE_DIR}/bench)

add_custom_target(lint
  COMMAND spmv_lint --json ${CMAKE_BINARY_DIR}/spmv_lint_report.json
          --fault-registry ${CMAKE_SOURCE_DIR}/src/util/fault_points.hpp
          ${SPMV_LINT_PATHS}
  COMMENT "spmv-lint over src/, tools/, bench/"
  VERBATIM)
add_dependencies(lint spmv_lint)

find_program(SPMV_CLANG_TIDY_EXE clang-tidy)
if(SPMV_CLANG_TIDY_EXE)
  file(GLOB_RECURSE SPMV_TIDY_SOURCES
       ${CMAKE_SOURCE_DIR}/src/*.cpp
       ${CMAKE_SOURCE_DIR}/tools/*.cpp)
  add_custom_target(tidy
    COMMAND ${SPMV_CLANG_TIDY_EXE} -p ${CMAKE_BINARY_DIR} --quiet
            ${SPMV_TIDY_SOURCES}
    COMMENT "clang-tidy (profile: .clang-tidy)"
    VERBATIM)
else()
  message(STATUS "clang-tidy not found; `tidy` target disabled")
endif()

find_program(SPMV_CPPCHECK_EXE cppcheck)
if(SPMV_CPPCHECK_EXE)
  add_custom_target(cppcheck
    COMMAND ${SPMV_CPPCHECK_EXE}
            --project=${CMAKE_BINARY_DIR}/compile_commands.json
            --enable=warning,performance,portability
            --suppressions-list=${CMAKE_SOURCE_DIR}/tools/cppcheck-suppressions.txt
            --inline-suppr --error-exitcode=1 --quiet
    COMMENT "cppcheck over the compilation database"
    VERBATIM)
else()
  message(STATUS "cppcheck not found; `cppcheck` target disabled")
endif()

find_program(SPMV_CLANG_FORMAT_EXE clang-format)
if(SPMV_CLANG_FORMAT_EXE)
  file(GLOB_RECURSE SPMV_FORMAT_SOURCES
       ${CMAKE_SOURCE_DIR}/src/*.cpp ${CMAKE_SOURCE_DIR}/src/*.hpp
       ${CMAKE_SOURCE_DIR}/tools/*.cpp
       ${CMAKE_SOURCE_DIR}/tests/*.cpp
       ${CMAKE_SOURCE_DIR}/bench/*.cpp
       ${CMAKE_SOURCE_DIR}/examples/*.cpp)
  list(FILTER SPMV_FORMAT_SOURCES EXCLUDE REGEX "tests/lint_corpus/")
  list(FILTER SPMV_FORMAT_SOURCES EXCLUDE REGEX "tests/data/lint_thread/")
  add_custom_target(format-check
    COMMAND ${SPMV_CLANG_FORMAT_EXE} --dry-run --Werror
            ${SPMV_FORMAT_SOURCES}
    COMMENT "clang-format --dry-run (profile: .clang-format)"
    VERBATIM)
  add_custom_target(format
    COMMAND ${SPMV_CLANG_FORMAT_EXE} -i ${SPMV_FORMAT_SOURCES}
    COMMENT "clang-format in place"
    VERBATIM)
else()
  message(STATUS "clang-format not found; `format`/`format-check` disabled")
endif()

# header_check compiles every src/ header alone, one include per
# translation unit, so a header that leans on what its includers happen
# to include first fails to build. Not part of `all`; CI's lint job builds
# it. A *_impl.hpp holds template bodies for the one .cpp that includes
# it after their declarations, so it is not meant to stand alone. Paths
# are anchored at this project's directories, not CMAKE_SOURCE_DIR:
# perfbench builds the project as a subdirectory of its own.
file(GLOB_RECURSE SPMV_CHECKED_HEADERS
     RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}/src
     ${CMAKE_CURRENT_SOURCE_DIR}/src/*.hpp)
list(FILTER SPMV_CHECKED_HEADERS EXCLUDE REGEX "_impl\\.hpp$")
set(SPMV_HEADER_CHECK_SOURCES)
foreach(SPMV_HEADER ${SPMV_CHECKED_HEADERS})
  string(MAKE_C_IDENTIFIER ${SPMV_HEADER} stem)
  set(unit ${CMAKE_CURRENT_BINARY_DIR}/header_check/${stem}.cpp)
  configure_file(${CMAKE_CURRENT_SOURCE_DIR}/cmake/header_check.cpp.in
                 ${unit} @ONLY)
  list(APPEND SPMV_HEADER_CHECK_SOURCES ${unit})
endforeach()
add_library(header_check OBJECT EXCLUDE_FROM_ALL ${SPMV_HEADER_CHECK_SOURCES})
target_include_directories(header_check PRIVATE ${CMAKE_CURRENT_SOURCE_DIR}/src)
target_link_libraries(header_check PRIVATE spmvcache_warnings)
# Keep the one-line units out of the database clang-tidy and cppcheck read.
set_target_properties(header_check PROPERTIES EXPORT_COMPILE_COMMANDS OFF)
