# Fails when a discovered gtest name embeds a pointer address or a byte dump.
#
#   cmake -DDISCOVERY_DIR=<build>/tests -P check_test_names.cmake
#
# gtest_discover_tests names value-parameterized tests after their printed
# parameters, and gtest prints a pointer parameter (a `const char*` axis,
# say) as "0x55e8850c4f60 pointing to ...". Such a name changes on every
# build, so no two test lists could be compared name by name. A parameter
# with no gtest printer prints as "4-byte object <01-00 00-00>", and after a
# name generator's suffix CMake keeps gtest's "# GetParam() = ..." comment in
# the name: such a name changes with the parameter's type or layout.
if(NOT DISCOVERY_DIR)
  message(FATAL_ERROR "check_test_names: DISCOVERY_DIR is not set")
endif()
file(GLOB discovery_files "${DISCOVERY_DIR}/*_tests.cmake")
if(NOT discovery_files)
  message(FATAL_ERROR
    "check_test_names: no *_tests.cmake discovery files in ${DISCOVERY_DIR}")
endif()
set(names 0)
set(bad "")
foreach(file IN LISTS discovery_files)
  file(STRINGS "${file}" lines REGEX "^add_test\\(")
  foreach(line IN LISTS lines)
    math(EXPR names "${names} + 1")
    # The whole line is checked: besides the name it holds only the test
    # binary's path and its --gtest_filter, which carries no parameters.
    if(line MATCHES "0x[0-9a-fA-F]" OR line MATCHES "pointing to" OR
       line MATCHES "GetParam\\(\\)" OR line MATCHES "-byte object <")
      string(APPEND bad "\n  ${line}")
    endif()
  endforeach()
endforeach()
if(names EQUAL 0)
  message(FATAL_ERROR "check_test_names: no add_test() lines found")
endif()
if(bad)
  message(FATAL_ERROR
    "check_test_names: test names embed an address or a byte dump:${bad}")
endif()
message(STATUS
  "check_test_names: ${names} test names, none with an address or byte dump")
