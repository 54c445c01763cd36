# Writes COPY as SOURCE with TEXT replaced by REPLACEMENT. TEXT must occur
# exactly once, so an edit that no longer applies fails loudly instead of
# compiling the unedited source.

file(READ "${SOURCE}" content)
string(REPLACE "${TEXT}" "" without "${content}")
string(LENGTH "${content}" before)
string(LENGTH "${without}" after)
string(LENGTH "${TEXT}" text_length)
math(EXPR hits "(${before} - ${after}) / ${text_length}")
if(NOT hits EQUAL 1)
  message(FATAL_ERROR "${SOURCE}: `${TEXT}` occurs ${hits} times, expected once")
endif()
string(REPLACE "${TEXT}" "${REPLACEMENT}" content "${content}")
file(WRITE "${COPY}" "${content}")
