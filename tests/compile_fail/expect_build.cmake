# Test driver for one compile_fail case (see CMakeLists.txt in this
# directory). Builds TARGET in BUILD_DIR and passes only when
#   * no EXPECT0 is given and the build succeeds (the control), or
#   * the build fails and every regex EXPECT0, EXPECT1, ... matches the
#     compiler output (each case's diagnostic names its enumerator).

set(build_args --build "${BUILD_DIR}" --target "${TARGET}")
if(DEFINED CONFIG AND NOT CONFIG STREQUAL "")
  list(APPEND build_args --config "${CONFIG}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" ${build_args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")

if(NOT DEFINED EXPECT0)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TARGET}: control unit failed to compile")
  endif()
  return()
endif()

if(rc EQUAL 0)
  message(FATAL_ERROR "${TARGET}: compiled, but the edit should have been rejected")
endif()
set(i 0)
while(DEFINED EXPECT${i})
  if(NOT out MATCHES "${EXPECT${i}}")
    message(FATAL_ERROR
      "${TARGET}: build failed without the expected diagnostic: ${EXPECT${i}}")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
